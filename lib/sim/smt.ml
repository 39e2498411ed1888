open Ssp_machine
module T = Ssp_telemetry.Telemetry
module F = Ssp_fault.Fault

(* Simulator fault sites (see lib/fault): all of them perturb only the
   speculative machinery or the memory-system timing, so under any fault
   plan the main thread's architectural outputs stay bit-identical —
   the invariant the chaos harness checks. *)
let site_kill = F.site "sim.spec.kill"
let site_spawn_deny = F.site "sim.spawn.deny"
let site_spawn_delay = F.site "sim.spawn.delay"
let site_starve = F.site "sim.context.starve"
let site_chain_break = F.site "sim.chain.break"

(* Sampled simulation: alternate [detail_window] cycle-accurate main-thread
   instructions with [ff_window] functionally-warmed fast-forward ones. *)
type sampling = { detail_window : int; ff_window : int }

(* 10% detailed with a short period: many small windows average over
   program phases far better than a few large ones at the same ratio.
   Validated by the sampled-accuracy tests (IPC within a few percent of a
   full run on every suite workload). *)
let default_sampling = { detail_window = 500; ff_window = 4_500 }

(* At the end of a cycle, the sampling bookkeeping acts in a later cycle
   that issues nothing only to open a measurement (the window's warm-up
   third is spent but no measurement is open) or to start a fast-forward
   (the window's instructions are spent). *)
let sampling_idle sampling ~measuring ~detail_left =
  match sampling with
  | None -> true
  | Some s ->
    (measuring || s.detail_window - detail_left < s.detail_window / 3)
    && detail_left > 0

(* splitmix64, for the fast-forward length jitter below. *)
let sm64 (st : int64 ref) =
  st := Int64.add !st 0x9E3779B97F4A7C15L;
  let z = !st in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let jitter_seed = 0x5350_4331L

(* Strictly periodic sampling resonates with loop periodicity (a window
   landing always on the same phase of an inner loop biases the estimate
   arbitrarily badly); drawing each fast-forward's length uniformly from
   [0.5, 1.5)x the nominal window de-correlates the sample points. The
   stream is seeded by a constant, so runs stay bit-reproducible. *)
let ff_jitter st ~window =
  let r = Int64.to_int (Int64.logand (sm64 st) 0xFFFFL) in
  let f = 0.5 +. (float_of_int r /. 65536.0) in
  max 1 (int_of_float (float_of_int window *. f))

type context = {
  thread : Thread.t;
  mutable redirect_until : int;
  reg_ready : int array;
  fill_ready : int array;
  mutable bundle_left : int;
  mutable last_chk_fire : int;
  mutable spawned_at : int;  (* cycle the current speculative thread began; -1 idle *)
  mutable spawn_src : Ssp_ir.Iref.t option;  (* Spawn instruction that bound it *)
  mutable spawn_target : string;  (* "fn#blk" label for timelines *)
}

type machine = {
  cfg : Config.t;
  prog : Ssp_ir.Prog.t;
  mem : Memory.t;
  hier : Hierarchy.t;
  bp : Bpred.t;
  lay : Layout.t;
  ctxs : context array;
  sel : context array;
  stats : Stats.t;
  mutable rr : int;
  delinquent_pc : bool array;
  mutable last_spawned : int;  (* context id bound by the latest try_spawn *)
  mutable ff : bool;  (* inside a fast-forward window *)
  attrib : Attrib.t option;
  tel_spawns : T.counter;
  tel_spawn_denied : T.counter;
  tel_watchdog_kills : T.counter;
}

let new_context id =
  {
    thread = Thread.create ~id;
    redirect_until = 0;
    reg_ready = Array.make Ssp_isa.Reg.count 0;
    fill_ready = Array.make 5 0;
    bundle_left = 0;
    last_chk_fire = min_int / 2;
    spawned_at = -1;
    spawn_src = None;
    spawn_target = "";
  }

let create ?attrib cfg prog =
  let lay = Layout.of_prog prog in
  let ctxs = Array.init cfg.Config.n_contexts new_context in
  let main = ctxs.(0).thread in
  Thread.enter main (Layout.find lay prog.Ssp_ir.Prog.entry) ~blk:0;
  main.Thread.active <- true;
  Thread.set main Ssp_isa.Reg.sp Ssp_ir.Prog.stack_base;
  let delinquent_pc = Array.make (max 1 lay.Layout.n_pcs) false in
  (match cfg.Config.memory_mode with
  | Config.Perfect_delinquent s ->
    Array.iteri
      (fun pc iref ->
        if Ssp_ir.Iref.Set.mem iref s then delinquent_pc.(pc) <- true)
      lay.Layout.irefs
  | Config.Normal | Config.Perfect_memory -> ());
  let hier = Hierarchy.create cfg in
  (match attrib with Some a -> Hierarchy.set_attrib hier a | None -> ());
  let stats = Stats.create () in
  Stats.ensure_sites stats lay.Layout.n_pcs;
  {
    cfg;
    prog;
    mem = Memory.create ();
    hier;
    bp = Bpred.create cfg;
    lay;
    ctxs;
    sel = Array.copy ctxs;
    stats;
    rr = 0;
    delinquent_pc;
    last_spawned = -1;
    ff = false;
    attrib;
    tel_spawns = T.counter "sim.spawns";
    tel_spawn_denied = T.counter "sim.spawn_denied";
    tel_watchdog_kills = T.counter "sim.watchdog_kills";
  }

let free_count m =
  let n = ref 0 in
  Array.iteri
    (fun i c -> if i > 0 && not c.thread.Thread.active then incr n)
    m.ctxs;
  !n

(* The chk.c firing policy: a free context (or several, per config), and a
   refractory interval per triggering thread to bound flush costs. The
   caller must have set [cur] to the checking context. Never fires inside a
   fast-forward window (no timing context to spawn into; architecturally a
   chk.c that does not fire is a nop, so outputs are unaffected). *)
let chk_allowed m ~now (ctx : context) =
  (not m.ff)
  && free_count m >= m.cfg.Config.chk_min_free
  && now - ctx.last_chk_fire >= m.cfg.Config.chk_refractory
  && (not (F.fire site_starve))
  && (ctx.last_chk_fire <- now;
      true)

let free_context m =
  let n = Array.length m.ctxs in
  let rec go i =
    if i >= n then None
    else if not m.ctxs.(i).thread.Thread.active then Some m.ctxs.(i)
    else go (i + 1)
  in
  go 1

(* The end of a speculative occupancy: record its lifetime and emit its
   timeline slice. Idempotent per occupancy ([spawned_at] is reset). *)
let note_thread_end m (ctx : context) ~now ~watchdog =
  if ctx.spawned_at >= 0 then begin
    (match m.attrib with
    | Some a -> Attrib.thread_end a ~spawned_at:ctx.spawned_at ~now ~watchdog
    | None -> ());
    if T.events_on () then
      T.emit_complete ~cat:"spec_thread" ~pid:T.pid_sim
        ~tid:ctx.thread.Thread.id
        ~ts:(float_of_int ctx.spawned_at)
        ~dur:(float_of_int (max 0 (now - ctx.spawned_at)))
        ~args:
          [
            ("target", ctx.spawn_target);
            ("watchdog", if watchdog then "true" else "false");
          ]
        (if ctx.spawn_target = "" then "spec" else ctx.spawn_target);
    ctx.spawned_at <- -1;
    ctx.spawn_src <- None
  end

let try_spawn m ~now ~src ~fn ~blk ~live_in =
  match if F.fire site_spawn_deny then None else free_context m with
  | None ->
    T.incr m.tel_spawn_denied;
    (match m.attrib with Some a -> Attrib.spawn_denied a ~src | None -> ());
    false
  | Some ctx ->
    (* A context can be freed by the issue loop without the end having
       been noted (e.g. the previous occupant was killed this cycle). *)
    note_thread_end m ctx ~now ~watchdog:false;
    Thread.reset_for_spawn ctx.thread ~lay:(Layout.find m.lay fn) ~blk ~live_in
      ~rand_state:(Int64.of_int ((ctx.thread.Thread.id * 1103515245) + 12345));
    Array.fill ctx.reg_ready 0 (Array.length ctx.reg_ready) 0;
    Array.fill ctx.fill_ready 0 (Array.length ctx.fill_ready) 0;
    ctx.redirect_until <-
      now + m.cfg.Config.spawn_latency + m.cfg.Config.lib_latency
      + (if F.fire site_spawn_delay then 64 else 0);
    ctx.spawned_at <- now;
    ctx.spawn_src <- Some src;
    ctx.spawn_target <-
      (if m.attrib <> None || T.events_on () then
         fn ^ "#" ^ string_of_int blk
       else "");
    m.stats.Stats.spawns <- m.stats.Stats.spawns + 1;
    T.incr m.tel_spawns;
    (match m.attrib with Some a -> Attrib.spawned a ~src | None -> ());
    m.last_spawned <- ctx.thread.Thread.id;
    true

(* Fill [m.sel] with up to [issue_threads] eligible contexts — the
   non-speculative thread first (it has priority for fetch/issue slots),
   speculative contexts round-robin — and return how many. The scratch
   array replaces the per-cycle list the old selector consed. *)
let select_threads m ~eligible =
  let n = Array.length m.ctxs in
  let count = ref 0 in
  if eligible m.ctxs.(0) then begin
    m.sel.(0) <- m.ctxs.(0);
    count := 1
  end;
  for k = 0 to n - 2 do
    let i = 1 + ((m.rr + k) mod (n - 1)) in
    let c = m.ctxs.(i) in
    if !count < m.cfg.Config.issue_threads && eligible c then begin
      m.sel.(!count) <- c;
      incr count
    end
  done;
  m.rr <- (m.rr + 1) mod (max 1 (n - 1));
  !count

let level_rank = function
  | Hierarchy.L1 -> 1
  | Hierarchy.L2 -> 2
  | Hierarchy.L3 -> 3
  | Hierarchy.Mem -> 4

(* Deepest level-rank among the thread's outstanding fills (0 = none): the
   per-rank max ready cycle is outstanding iff it is still in the future.
   Replaces filtering a (level, ready) list every cycle. *)
let outstanding_rank (ctx : context) ~now =
  if ctx.fill_ready.(4) > now then 4
  else if ctx.fill_ready.(3) > now then 3
  else if ctx.fill_ready.(2) > now then 2
  else 0

let account_cycle m ~active ~now =
  let rank = outstanding_rank m.ctxs.(0) ~now in
  Stats.add_category m.stats
    (if active then if rank > 0 then Stats.Cat_cache_exec else Stats.Cat_exec
     else
       match rank with
       | 4 -> Stats.Cat_l3
       | 3 -> Stats.Cat_l2
       | 2 -> Stats.Cat_l1
       | _ -> Stats.Cat_other)

(* Per-interval telemetry of a core: main-thread IPC and L1D demand misses
   over each [interval_cycles]-cycle interval. *)
let interval_cycles = 8192

type interval = {
  iv_ipc : T.series;
  iv_misses : T.series;
  mutable iv_instrs : int;  (* main instructions at the last sample *)
  mutable iv_l1d : int;  (* L1D misses at the last sample *)
}

let interval core =
  {
    iv_ipc = T.series ("sim." ^ core ^ ".interval_ipc");
    iv_misses = T.series ("sim." ^ core ^ ".interval_l1d_misses");
    iv_instrs = 0;
    iv_l1d = 0;
  }

let sample_interval m iv ~now =
  let mi = m.stats.Stats.main_instrs in
  let ms = Cache.stats_misses (Hierarchy.l1d m.hier) in
  T.sample iv.iv_ipc ~x:(float_of_int now)
    ~y:(float_of_int (mi - iv.iv_instrs) /. float_of_int interval_cycles);
  T.sample iv.iv_misses ~x:(float_of_int now)
    ~y:(float_of_int (ms - iv.iv_l1d));
  iv.iv_instrs <- mi;
  iv.iv_l1d <- ms

let end_cycle m iv ~now =
  m.stats.Stats.cycles <- now;
  if T.is_enabled () && now mod interval_cycles = 0 then
    sample_interval m iv ~now

let cycles_below ~from ~until x = max 0 (min until x - from)

let add_cycles (st : Stats.t) cat n =
  let i = Stats.category_index cat in
  st.Stats.categories.(i) <- st.Stats.categories.(i) + n

(* An idle cycle changes nothing but the clock, the round-robin cursor,
   the Figure-10 tally and the telemetry intervals, so a run of them is
   credited in closed form. The main thread issues nothing, so its
   category depends only on which [fill_ready] thresholds lie ahead: a
   cycle [t] is L3 while [t < fill_ready.(4)], then L2 while below the
   larger of ranks 4 and 3, then L1 below the largest of 4, 3 and 2, and
   Other after that. *)
let skip_idle m iv ~from ~until =
  let f = m.ctxs.(0).fill_ready in
  let l3 = cycles_below ~from ~until f.(4) in
  let l2 = cycles_below ~from ~until (max f.(4) f.(3)) in
  let l1 = cycles_below ~from ~until (max (max f.(4) f.(3)) f.(2)) in
  let k = until - from in
  add_cycles m.stats Stats.Cat_l3 l3;
  add_cycles m.stats Stats.Cat_l2 (l2 - l3);
  add_cycles m.stats Stats.Cat_l1 (l1 - l2);
  add_cycles m.stats Stats.Cat_other (k - l1);
  m.rr <- (m.rr + k) mod max 1 (Array.length m.ctxs - 1);
  if T.is_enabled () then begin
    let x = ref ((from / interval_cycles + 1) * interval_cycles) in
    while !x <= until do
      sample_interval m iv ~now:!x;
      x := !x + interval_cycles
    done
  end;
  m.stats.Stats.cycles <- until

(* A speculative demand load at a slice site that maps back to a
   delinquent load IS the prefetch for value-used targets (no lfetch is
   emitted for those); tag it so attribution sees it as an issue. *)
let pf_tag_of m (ctx : context) iref =
  match m.attrib with
  | Some a when ctx.thread.Thread.id <> 0 -> (
    match Attrib.target_of a iref with
    | Some target ->
      Some
        {
          Attrib.target;
          site = iref;
          ctx = ctx.thread.Thread.id;
          spawn_src = ctx.spawn_src;
        }
    | None -> None)
  | _ -> None

let demand_access m ~now ~ctx ~pc addr =
  let perfect = m.delinquent_pc.(pc) in
  (* Speculative-thread misses must not starve the main thread's demand
     misses out of the fill buffer. *)
  let low_priority = ctx.thread.Thread.id <> 0 in
  let o =
    if perfect then Hierarchy.perfect_hit m.hier ~now
    else
      match m.attrib with
      | None -> Hierarchy.demand m.hier ~now ~low_priority addr
      | Some _ ->
        let iref = Layout.iref_of m.lay pc in
        Hierarchy.access m.hier ~now ~low_priority
          ?pf_tag:(pf_tag_of m ctx iref) ~demand_iref:iref
          ~demand_main:(not low_priority) addr
  in
  if ctx.thread.Thread.id = 0 then
    Stats.record_load_pc m.stats ~pc o.Hierarchy.level
      ~partial:o.Hierarchy.partial;
  (* Track the fill for stall attribution if it is an L1 miss. *)
  (match o.Hierarchy.level with
  | Hierarchy.L1 -> ()
  | lvl ->
    let r = level_rank lvl in
    if o.Hierarchy.ready > ctx.fill_ready.(r) then
      ctx.fill_ready.(r) <- o.Hierarchy.ready);
  o

let watchdog_check m ~now ctx =
  let th = ctx.thread in
  if th.Thread.speculative && th.Thread.active then
    if th.Thread.instrs > m.cfg.Config.spec_watchdog then begin
      T.incr m.tel_watchdog_kills;
      th.Thread.active <- false;
      note_thread_end m ctx ~now ~watchdog:true
    end
    else if F.fire site_kill then begin
      (* Injected random spec-thread kill: ends the occupancy exactly the
         way a watchdog kill does, minus the watchdog counter. *)
      th.Thread.active <- false;
      note_thread_end m ctx ~now ~watchdog:true
    end

(* Fast-forward the main thread [instrs] architectural instructions with
   functional warming: memory state, outputs, caches and branch predictor
   advance; the clock does not. Live speculative threads are ended first
   (their timing context is meaningless across the gap; architecturally
   they never affect main-thread state). Returns the instruction count
   actually executed (the main thread may halt mid-window). *)
let fast_forward m (env : Exec.env) ~now ~instrs =
  m.ff <- true;
  Array.iteri
    (fun i (c : context) ->
      if i > 0 && c.thread.Thread.active then begin
        c.thread.Thread.active <- false;
        note_thread_end m c ~now ~watchdog:false
      end)
    m.ctxs;
  let th = m.ctxs.(0).thread in
  let hier = m.hier and bp = m.bp and lay = m.lay in
  let done_ = ref 0 in
  Hierarchy.reset_warm_filter hier;
  (* Functional warming around the one interpreter: the instruction fetch
     at each block entry, the line of every load, store and lfetch (the
     timed runs' prefetch traffic fills the hierarchy too, so skipping it
     would leave the next detailed window colder than a full run), and
     the predictor and BTB on every branch. The pc is settled between
     instructions, so the fetch address and branch pc come straight from
     the thread. *)
  while !done_ < instrs && th.Thread.active do
    let e = th.Thread.lay and blk = th.Thread.blk and ins = th.Thread.ins in
    if ins = 0 then Hierarchy.warm_ifetch hier e.Layout.blk0_iaddr.(blk);
    incr done_;
    match Exec.step env lay th with
    | Exec.Ev_load | Exec.Ev_store | Exec.Ev_prefetch ->
      Hierarchy.warm hier th.Thread.addr
    | Exec.Ev_jump ->
      let pc = e.Layout.block_base.(blk) + ins in
      if not (Bpred.btb_lookup bp ~pc) then Bpred.btb_insert bp ~pc
    | (Exec.Ev_branch_taken | Exec.Ev_branch_not_taken) as ev ->
      let pc = e.Layout.block_base.(blk) + ins in
      let taken = ev = Exec.Ev_branch_taken in
      Bpred.update bp ~thread:0 ~pc ~taken;
      if taken && not (Bpred.btb_lookup bp ~pc) then Bpred.btb_insert bp ~pc
    | _ -> ()
  done;
  m.ff <- false;
  !done_
