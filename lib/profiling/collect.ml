module T = Ssp_telemetry.Telemetry

let collect ?(config = Ssp_machine.Config.in_order) ?max_instrs prog =
  T.with_span "profile" @@ fun () ->
  let profile = Profile.create () in
  let hierarchy = Ssp_sim.Hierarchy.create ~tprefix:"profile" config in
  let clock = ref 0 in
  (* Pre-size the block counters. *)
  let funcs = Ssp_ir.Prog.funcs_in_order prog in
  List.iter
    (fun (f : Ssp_ir.Prog.func) ->
      Hashtbl.replace profile.Profile.blocks f.name
        (Array.make (Array.length f.blocks) 0))
    funcs;
  (* Per-pc state, indexed by the dense {!Ssp_sim.Layout} pc id the hook
     receives: execution counts, and each site's profile record. A record
     enters the profile's [Iref]-keyed table at the site's first
     execution, so a table's iteration order, which consumers folding
     over it see, is the order sites first execute. *)
  let lay = Ssp_sim.Layout.of_prog prog in
  let n = max 1 lay.Ssp_sim.Layout.n_pcs in
  let execs = Array.make n 0 in
  let site tbl make =
    let no_site = make () in
    let at = Array.make n no_site in
    fun pc ->
      let s = at.(pc) in
      if s != no_site then s
      else begin
        let s = make () in
        Ssp_ir.Iref.Tbl.replace tbl (Ssp_sim.Layout.iref_of lay pc) s;
        at.(pc) <- s;
        s
      end
  in
  let load_at =
    site profile.Profile.loads (fun () ->
        {
          Profile.accesses = 0;
          l1_hits = 0;
          l2_hits = 0;
          l3_hits = 0;
          mem_hits = 0;
          partial_hits = 0;
          miss_cycles = 0;
        })
  in
  let branch_at =
    site profile.Profile.branches (fun () ->
        { Profile.taken = 0; not_taken = 0 })
  in
  let calls_at = site profile.Profile.calls (fun () -> Hashtbl.create 4) in
  let record_load pc addr =
    incr clock;
    let o = Ssp_sim.Hierarchy.access hierarchy ~now:!clock addr in
    let s = load_at pc in
    s.Profile.accesses <- s.Profile.accesses + 1;
    (match o.Ssp_sim.Hierarchy.level with
    | Ssp_sim.Hierarchy.L1 -> s.Profile.l1_hits <- s.Profile.l1_hits + 1
    | Ssp_sim.Hierarchy.L2 -> s.Profile.l2_hits <- s.Profile.l2_hits + 1
    | Ssp_sim.Hierarchy.L3 -> s.Profile.l3_hits <- s.Profile.l3_hits + 1
    | Ssp_sim.Hierarchy.Mem -> s.Profile.mem_hits <- s.Profile.mem_hits + 1);
    if o.Ssp_sim.Hierarchy.partial then
      s.Profile.partial_hits <- s.Profile.partial_hits + 1;
    let beyond_l1 =
      max 0
        (o.Ssp_sim.Hierarchy.ready - !clock
        - config.Ssp_machine.Config.l1.Ssp_machine.Config.latency)
    in
    s.Profile.miss_cycles <- s.Profile.miss_cycles + beyond_l1
  in
  let hook (th : Ssp_sim.Thread.t) pc ev =
    incr clock;
    execs.(pc) <- execs.(pc) + 1;
    match ev with
    | Ssp_sim.Exec.Ev_load ->
      record_load pc (Int64.of_int th.Ssp_sim.Thread.addr)
    | Ssp_sim.Exec.Ev_store ->
      (* Stores touch the hierarchy (write-allocate) but are not load
         candidates. *)
      incr clock;
      ignore
        (Ssp_sim.Hierarchy.access hierarchy ~now:!clock
           (Int64.of_int th.Ssp_sim.Thread.addr))
    | Ssp_sim.Exec.Ev_branch_taken ->
      let s = branch_at pc in
      s.Profile.taken <- s.Profile.taken + 1
    | Ssp_sim.Exec.Ev_branch_not_taken ->
      let s = branch_at pc in
      s.Profile.not_taken <- s.Profile.not_taken + 1
    | Ssp_sim.Exec.Ev_call ->
      (* The thread has already entered the callee. *)
      let tbl = calls_at pc and callee = Ssp_sim.Thread.fn th in
      Hashtbl.replace tbl callee
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl callee))
    | Ssp_sim.Exec.Ev_plain | Ssp_sim.Exec.Ev_prefetch | Ssp_sim.Exec.Ev_jump
    | Ssp_sim.Exec.Ev_ret | Ssp_sim.Exec.Ev_halt | Ssp_sim.Exec.Ev_kill
    | Ssp_sim.Exec.Ev_chk_fired | Ssp_sim.Exec.Ev_chk_nofire
    | Ssp_sim.Exec.Ev_spawned | Ssp_sim.Exec.Ev_spawn_denied
    | Ssp_sim.Exec.Ev_lib ->
      ()
  in
  ignore (Ssp_sim.Funcsim.run ?max_instrs ~hook prog);
  (* A block's count is its first instruction's. *)
  List.iter
    (fun (f : Ssp_ir.Prog.func) ->
      let counts = Hashtbl.find profile.Profile.blocks f.name in
      let base = (Ssp_sim.Layout.find lay f.name).Ssp_sim.Layout.block_base in
      Array.iteri
        (fun b (blk : Ssp_ir.Prog.block) ->
          if Array.length blk.ops > 0 then counts.(b) <- execs.(base.(b)))
        f.blocks)
    funcs;
  profile.Profile.total_instrs <- Array.fold_left ( + ) 0 execs;
  if T.is_enabled () then
    T.count "profile.instrs" profile.Profile.total_instrs;
  profile
