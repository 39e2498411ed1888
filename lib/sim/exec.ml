type env = {
  mem : Memory.t;
  prog : Ssp_ir.Prog.t;
  chk_free : unit -> bool;
  spawn : src:Ssp_ir.Iref.t -> fn:string -> blk:int -> live_in:int64 array -> bool;
  output : int64 -> unit;
  mutable ev_addr : int64;
}

(* Events are all constant constructors (immediates): returning one from the
   per-instruction hot path allocates nothing. The address of the last
   load/store/prefetch travels unboxed in [Thread.addr]. *)
type event =
  | Ev_plain
  | Ev_load
  | Ev_store
  | Ev_prefetch
  | Ev_jump
  | Ev_branch_taken
  | Ev_branch_not_taken
  | Ev_call
  | Ev_ret
  | Ev_halt
  | Ev_kill
  | Ev_chk_fired
  | Ev_chk_nofire
  | Ev_spawned
  | Ev_spawn_denied
  | Ev_lib

(* Unchecked [Bytes.get_int64_ne]/[set_int64_ne]: a 7-bit register field
   always indexes inside the 128-register file. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* Word fields (see decode.ml). r0 is never written, so reading it yields
   the hardwired zero unbranched. *)
let[@inline] rd w = (w lsr 6) land 127
let[@inline] reg (regs : Thread.regs) r = get64 regs (r lsl 3)
let[@inline] ra regs w = reg regs ((w lsr 13) land 127)
let[@inline] rb regs w = reg regs ((w lsr 20) land 127)
let[@inline] imm w = w asr 27

let[@inline] wr (regs : Thread.regs) w v =
  let d = rd w in
  if d <> 0 then set64 regs (d lsl 3) v

let[@inline] blit (src : Thread.regs) so (dst : Thread.regs) d k =
  Bytes.blit src (so lsl 3) dst (d lsl 3) (k lsl 3)

(* The pc stays settled between instructions (see [Thread.t]): stepping
   past a block's last instruction, or landing on an empty block, falls
   through at once. *)
let[@inline] next (t : Thread.t) code blk ins =
  t.ins <- ins + 1;
  if ins + 1 >= Array.length (Array.unsafe_get code blk) then Thread.settle t

let[@inline] jump (t : Thread.t) code blk =
  t.blk <- blk;
  t.ins <- 0;
  if Array.length (Array.unsafe_get code blk) = 0 then Thread.settle t

let[@inline] alu k a b =
  match k with
  | 0 -> Int64.add a b
  | 1 -> Int64.sub a b
  | 2 -> Int64.mul a b
  | 3 -> if Int64.equal b 0L then 0L else Int64.div a b
  | 4 -> if Int64.equal b 0L then 0L else Int64.rem a b
  | 5 -> Int64.logand a b
  | 6 -> Int64.logor a b
  | 7 -> Int64.logxor a b
  | 8 -> Int64.shift_left a (Int64.to_int b land 63)
  | _ -> Int64.shift_right a (Int64.to_int b land 63)

let[@inline] cmp k a b =
  let c = Int64.compare a b in
  let v =
    match k with
    | 0 -> c = 0
    | 1 -> c <> 0
    | 2 -> c < 0
    | 3 -> c <= 0
    | 4 -> c > 0
    | _ -> c >= 0
  in
  if v then 1L else 0L

(* A call saves the first [k] stacked registers of the caller; the return
   restores exactly those. *)
let call (t : Thread.t) callee k ~ret_blk ~ret_ins =
  let fr = Thread.push_frame t ~ret_blk ~ret_ins in
  fr.Thread.saved_n <- k;
  blit t.regs Ssp_isa.Reg.first_stacked fr.Thread.saved_stacked 0 k;
  Thread.enter t callee ~blk:0

let ret (t : Thread.t) =
  if t.frame_n = 0 then begin
    (* Returning from the outermost frame ends the thread. *)
    t.active <- false;
    if t.speculative then Ev_kill else Ev_halt
  end
  else begin
    t.frame_n <- t.frame_n - 1;
    let fr = t.frames.(t.frame_n) in
    blit fr.Thread.saved_stacked 0 t.regs Ssp_isa.Reg.first_stacked
      fr.Thread.saved_n;
    t.lay <- fr.Thread.ret_lay;
    t.blk <- fr.Thread.ret_blk;
    t.ins <- fr.Thread.ret_ins;
    Thread.settle t;
    Ev_ret
  end

let[@inline] addr regs w = (Int64.to_int (ra regs w) + imm w) land max_int

let step env (lay : Layout.t) (t : Thread.t) =
  let e = t.lay in
  let dec = e.Layout.dec in
  let code = dec.Decode.code in
  let blk = t.blk and ins = t.ins in
  (* Checked: a thread whose control fell off its function's end fails
     here. *)
  let w = code.(blk).(ins) in
  let regs = t.regs in
  t.instrs <- t.instrs + 1;
  match w land 63 with
  | 0 ->
    next t code blk ins;
    Ev_plain
  | 1 ->
    wr regs w (Array.unsafe_get dec.Decode.imms (imm w));
    next t code blk ins;
    Ev_plain
  | 2 ->
    wr regs w (ra regs w);
    next t code blk ins;
    Ev_plain
  | (3 | 4 | 5 | 6 | 7 | 8 | 9 | 10 | 11 | 12) as opc ->
    wr regs w (alu (opc - 3) (ra regs w) (rb regs w));
    next t code blk ins;
    Ev_plain
  | (13 | 14 | 15 | 16 | 17 | 18 | 19 | 20 | 21 | 22) as opc ->
    wr regs w
      (alu (opc - 13) (ra regs w) (Array.unsafe_get dec.Decode.imms (imm w)));
    next t code blk ins;
    Ev_plain
  | (23 | 24 | 25 | 26 | 27 | 28) as opc ->
    wr regs w (cmp (opc - 23) (ra regs w) (rb regs w));
    next t code blk ins;
    Ev_plain
  | (29 | 30 | 31 | 32 | 33 | 34) as opc ->
    wr regs w
      (cmp (opc - 29) (ra regs w) (Array.unsafe_get dec.Decode.imms (imm w)));
    next t code blk ins;
    Ev_plain
  | (35 | 36 | 37 | 38) as opc ->
    (* Loads zero-extend (documented in Op); the value comes back masked. *)
    let a = addr regs w in
    wr regs w (Memory.read_i env.mem a (1 lsl (opc - 35)));
    t.addr <- a;
    next t code blk ins;
    Ev_load
  | (39 | 40 | 41 | 42) as opc ->
    let a = addr regs w in
    if not t.speculative then
      Memory.write_i env.mem a (1 lsl (opc - 39)) (reg regs (rd w));
    t.addr <- a;
    next t code blk ins;
    Ev_store
  | 43 ->
    t.addr <- addr regs w;
    next t code blk ins;
    Ev_prefetch
  | 44 ->
    jump t code (imm w);
    Ev_jump
  | 45 ->
    if not (Int64.equal (ra regs w) 0L) then begin
      jump t code (imm w);
      Ev_branch_taken
    end
    else begin
      next t code blk ins;
      Ev_branch_not_taken
    end
  | 46 ->
    if Int64.equal (ra regs w) 0L then begin
      jump t code (imm w);
      Ev_branch_taken
    end
    else begin
      next t code blk ins;
      Ev_branch_not_taken
    end
  | 47 ->
    call t lay.Layout.by_index.(imm w) dec.Decode.n_save ~ret_blk:blk
      ~ret_ins:(ins + 1);
    Ev_call
  | 48 -> ret t
  | 49 ->
    t.active <- false;
    Ev_halt
  | 50 ->
    t.active <- false;
    Ev_kill
  | 51 ->
    if env.chk_free () then begin
      jump t code (imm w);
      Ev_chk_fired
    end
    else begin
      next t code blk ins;
      Ev_chk_nofire
    end
  | 52 ->
    (* xorshift64*; deterministic per thread. *)
    let x = t.rand_state in
    let x = Int64.logxor x (Int64.shift_left x 13) in
    let x = Int64.logxor x (Int64.shift_right_logical x 7) in
    let x = Int64.logxor x (Int64.shift_left x 17) in
    t.rand_state <- x;
    wr regs w (Int64.shift_right_logical x 1);
    next t code blk ins;
    Ev_plain
  | 53 -> (
    let id = Int64.to_int (ra regs w) in
    match Ssp_ir.Prog.func_by_code_id env.prog id with
    | None ->
      (* An indirect call through garbage: speculative threads tolerate it
         (treated as a nop); the main thread must not do this. *)
      if not t.speculative then
        failwith
          (Printf.sprintf "Exec: indirect call to unknown code id %d" id);
      next t code blk ins;
      Ev_plain
    | Some f ->
      (* The callee is unknown statically: save every stacked register. *)
      call t
        (Layout.find lay f.Ssp_ir.Prog.name)
        (Ssp_isa.Reg.count - Ssp_isa.Reg.first_stacked)
        ~ret_blk:blk ~ret_ins:(ins + 1);
      Ev_call)
  | 54 ->
    let v = Int64.to_int (Array.unsafe_get dec.Decode.imms (imm w)) in
    let target = lay.Layout.by_index.(v lsr 32) in
    let accepted =
      env.spawn
        ~src:(Layout.iref_of lay (e.Layout.block_base.(blk) + ins))
        ~fn:target.Layout.func.Ssp_ir.Prog.name ~blk:(v land 0xFFFF_FFFF)
        ~live_in:t.lib_out
    in
    next t code blk ins;
    if accepted then Ev_spawned else Ev_spawn_denied
  | 55 ->
    let s = imm w in
    if s >= 0 && s < Thread.lib_slots then t.lib_out.(s) <- ra regs w;
    next t code blk ins;
    Ev_lib
  | 56 ->
    let s = imm w in
    wr regs w (if s >= 0 && s < Thread.lib_slots then t.live_in.(s) else 0L);
    next t code blk ins;
    Ev_lib
  | 57 ->
    wr regs w (if t.speculative then 0L else Memory.alloc env.mem (ra regs w));
    next t code blk ins;
    Ev_plain
  | 58 ->
    if not t.speculative then env.output (ra regs w);
    next t code blk ins;
    Ev_plain
  | _ -> assert false
