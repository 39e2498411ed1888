type regs = Bytes.t

type frame = {
  saved_stacked : regs;
  mutable saved_n : int;
  mutable ret_blk : int;
  mutable ret_ins : int;
  mutable ret_lay : Layout.entry;
}

type t = {
  id : int;
  mutable lay : Layout.entry;
  mutable blk : int;
  mutable ins : int;
  regs : regs;
  mutable frames : frame array;
  mutable frame_n : int;
  mutable live_in : int64 array;
  lib_out : int64 array;
  mutable speculative : bool;
  mutable active : bool;
  mutable instrs : int;
  mutable rand_state : int64;
  mutable addr : int;
}

let lib_slots = 16

let n_stacked = Ssp_isa.Reg.count - Ssp_isa.Reg.first_stacked

let new_regs n = Bytes.make (8 * n) '\000'

let new_frame () =
  { saved_stacked = new_regs n_stacked; saved_n = n_stacked;
    ret_blk = 0; ret_ins = 0; ret_lay = Layout.dummy }

let create ~id =
  {
    id;
    lay = Layout.dummy;
    blk = 0;
    ins = 0;
    regs = new_regs Ssp_isa.Reg.count;
    frames = Array.init 16 (fun _ -> new_frame ());
    frame_n = 0;
    live_in = Array.make lib_slots 0L;
    lib_out = Array.make lib_slots 0L;
    speculative = false;
    active = false;
    instrs = 0;
    rand_state = 0x9E3779B97F4A7C15L;
    addr = 0;
  }

let fn t = t.lay.Layout.func.Ssp_ir.Prog.name

let settle t =
  let code = t.lay.Layout.dec.Decode.code in
  let n = Array.length code in
  while t.blk < n && t.ins >= Array.length (Array.unsafe_get code t.blk) do
    t.blk <- t.blk + 1;
    t.ins <- 0
  done

let enter t lay ~blk =
  t.lay <- lay;
  t.blk <- blk;
  t.ins <- 0;
  settle t

let reset_for_spawn t ~lay ~blk ~live_in ~rand_state =
  enter t lay ~blk;
  Bytes.fill t.regs 0 (Bytes.length t.regs) '\000';
  t.frame_n <- 0;
  t.live_in <- Array.copy live_in;
  Array.fill t.lib_out 0 lib_slots 0L;
  t.speculative <- true;
  t.active <- true;
  t.instrs <- 0;
  t.rand_state <- rand_state

let push_frame t ~ret_blk ~ret_ins =
  let cap = Array.length t.frames in
  if t.frame_n = cap then
    t.frames <-
      Array.init (2 * cap) (fun i ->
          if i < cap then t.frames.(i) else new_frame ());
  let fr = t.frames.(t.frame_n) in
  t.frame_n <- t.frame_n + 1;
  fr.saved_n <- n_stacked;
  fr.ret_blk <- ret_blk;
  fr.ret_ins <- ret_ins;
  fr.ret_lay <- t.lay;
  fr

let set t r v =
  if r <> Ssp_isa.Reg.zero then Bytes.set_int64_ne t.regs (8 * r) v
