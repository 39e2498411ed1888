type result = {
  outputs : int64 list;
  instrs : int;
  spec_instrs : int;
  spawns : int;
}

let run ?(max_instrs = 200_000_000) ?(spawning = false) ?hook prog =
  let lay = Layout.of_prog prog in
  let mem = Memory.create () in
  let outputs = ref [] in
  let main = Thread.create ~id:0 in
  Thread.enter main (Layout.find lay prog.Ssp_ir.Prog.entry) ~blk:0;
  main.Thread.active <- true;
  Thread.set main Ssp_isa.Reg.sp Ssp_ir.Prog.stack_base;
  (* Speculative contexts; an inactive one is free. *)
  let specs = Array.init 3 (fun i -> Thread.create ~id:(1 + i)) in
  let spawns = ref 0 in
  let spec_instrs = ref 0 in
  let free_slot () =
    let rec go i =
      if i >= Array.length specs then None
      else if specs.(i).Thread.active then go (i + 1)
      else Some specs.(i)
    in
    go 0
  in
  let env =
    {
      Exec.mem;
      prog;
      chk_free = (fun () -> spawning && Option.is_some (free_slot ()));
      spawn =
        (fun ~src:_ ~fn ~blk ~live_in ->
          if not spawning then false
          else
            match free_slot () with
            | None -> false
            | Some th ->
              Thread.reset_for_spawn th ~lay:(Layout.find lay fn) ~blk ~live_in
                ~rand_state:0x2545F4914F6CDD1DL;
              incr spawns;
              true);
      output = (fun v -> outputs := v :: !outputs);
      ev_addr = 0L;
    }
  in
  let step_thread th =
    match hook with
    | None -> Exec.step env lay th
    | Some h ->
      let base = th.Thread.lay.Layout.block_base in
      let pc = base.(th.Thread.blk) + th.Thread.ins in
      let ev = Exec.step env lay th in
      h th pc ev;
      ev
  in
  let watchdog = 1_000_000 in
  let rec loop () =
    if not main.Thread.active then ()
    else if main.Thread.instrs >= max_instrs then
      failwith "Funcsim.run: main thread exceeded max_instrs"
    else begin
      (* Main thread: a burst of instructions, then speculative threads get
         a proportional burst (coarse interleaving). *)
      let burst = 64 in
      let i = ref 0 in
      while !i < burst && main.Thread.active do
        ignore (step_thread main);
        incr i
      done;
      if spawning then
        Array.iter
          (fun th ->
            let j = ref 0 in
            while !j < burst && th.Thread.active do
              ignore (step_thread th);
              incr spec_instrs;
              incr j;
              if th.Thread.instrs > watchdog then th.Thread.active <- false
            done)
          specs;
      loop ()
    end
  in
  loop ();
  {
    outputs = List.rev !outputs;
    instrs = main.Thread.instrs;
    spec_instrs = !spec_instrs;
    spawns = !spawns;
  }
