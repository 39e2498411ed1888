(** Shared SMT machinery for the cycle models: hardware-context management,
    the static layout tables (branch-predictor numbering, bundle indices),
    round-robin thread selection, the spawn policy, and the fast-forward
    engine for sampled simulation. *)

val site_chain_break : Ssp_fault.Fault.site
(** Fault site for injected chained-spawn breakage; queried by the cycle
    models when a {e speculative} thread executes a [Spawn] (only they
    know which context is stepping). *)

type sampling = { detail_window : int; ff_window : int }
(** Sampled-simulation windows, in main-thread instructions: alternate
    [detail_window] cycle-accurate instructions with [ff_window]
    fast-forwarded (functionally warmed) ones. *)

val default_sampling : sampling
(** 500 detailed / 4500 fast-forwarded (10% detail, short period): the
    windows the bench and accuracy tests validate. *)

val sampling_idle :
  sampling option -> measuring:bool -> detail_left:int -> bool
(** Whether cycles that issue nothing leave the cores' sampling
    bookkeeping untouched: no measurement to open and no fast-forward to
    start. An idle skip is taken only then. *)

val jitter_seed : int64
(** Initial state for the {!ff_jitter} stream (one fresh ref per run). *)

val ff_jitter : int64 ref -> window:int -> int
(** The next fast-forward length: uniform in [0.5, 1.5)x [window], drawn
    from a deterministic splitmix64 stream — breaks the resonance of
    strictly periodic sampling with loop periodicity while keeping runs
    bit-reproducible. *)

type context = {
  thread : Thread.t;
  mutable redirect_until : int;
      (** front end stalled until this cycle (mispredict, flush, I-miss) *)
  reg_ready : int array;  (** scoreboard: cycle each register is available *)
  fill_ready : int array;
      (** per level-rank (indices 2..4): latest ready cycle among this
          thread's demand fills from that level — outstanding iff in the
          future *)
  mutable bundle_left : int;  (** issue-slot bookkeeping within a cycle *)
  mutable last_chk_fire : int;  (** cycle of this thread's last chk.c fire *)
  mutable spawned_at : int;
      (** cycle the current speculative occupancy began (-1 when idle) *)
  mutable spawn_src : Ssp_ir.Iref.t option;
      (** the [Spawn] instruction that bound this occupancy *)
  mutable spawn_target : string;  (** "fn#blk" label for timeline events *)
}

type machine = {
  cfg : Ssp_machine.Config.t;
  prog : Ssp_ir.Prog.t;
  mem : Memory.t;
  hier : Hierarchy.t;
  bp : Bpred.t;
  lay : Layout.t;
  ctxs : context array;
  sel : context array;  (** scratch filled by {!select_threads} *)
  stats : Stats.t;
  mutable rr : int;  (** round-robin cursor over contexts *)
  delinquent_pc : bool array;
      (** pc-indexed perfect-delinquent filtering (dense {!Layout} ids) *)
  mutable last_spawned : int;
      (** context id bound by the most recent successful spawn (-1 if
          none); lets a timing model adjust the child's start *)
  mutable ff : bool;
      (** inside a fast-forward window: chk.c never fires *)
  attrib : Attrib.t option;  (** prefetch-lifecycle attribution, if any *)
  tel_spawns : Ssp_telemetry.Telemetry.counter;
  tel_spawn_denied : Ssp_telemetry.Telemetry.counter;
  tel_watchdog_kills : Ssp_telemetry.Telemetry.counter;
}

val create : ?attrib:Attrib.t -> Ssp_machine.Config.t -> Ssp_ir.Prog.t -> machine
(** Context 0 is the main thread, initialized at the program entry.
    [attrib] attaches prefetch-lifecycle attribution to the machine and
    its hierarchy (bookkeeping only; timing is unchanged). *)

val chk_allowed : machine -> now:int -> context -> bool
(** Whether a [chk.c] of this thread fires now: enough free contexts and
    the thread's refractory interval elapsed (and not fast-forwarding).
    Records the firing time when it returns true. *)

val free_context : machine -> context option
(** An inactive context, if any (never the main thread's). *)

val try_spawn :
  machine ->
  now:int ->
  src:Ssp_ir.Iref.t ->
  fn:string ->
  blk:int ->
  live_in:int64 array ->
  bool
(** Bind a free context as a speculative thread; charges the spawn and
    live-in-copy latency to the child's start. [src] is the spawning
    [Spawn] instruction, recorded for attribution and denied-spawn
    accounting. *)

val note_thread_end : machine -> context -> now:int -> watchdog:bool -> unit
(** Record the end of a speculative occupancy: lifetime attribution and a
    timeline event. Idempotent per occupancy; the issue loops call it when
    a speculative thread kills itself, [watchdog_check] and [try_spawn]
    call it for the other endings. *)

val select_threads : machine -> eligible:(context -> bool) -> int
(** Fill [sel] with up to [issue_threads] contexts in priority order (main
    thread first, then round-robin) satisfying [eligible]; returns the
    count and advances the cursor. Allocation-free. *)

val account_cycle : machine -> active:bool -> now:int -> unit
(** Figure 10 accounting of cycle [now] for the main thread: [active] when
    it issued (in-order) or retired (OOO) something; otherwise the cycle
    goes to the deepest level among its outstanding demand fills. *)

type interval
(** A core's per-interval telemetry series ([sim.<core>.interval_ipc] and
    [sim.<core>.interval_l1d_misses]), sampled every 8192 cycles while
    telemetry is on. *)

val interval : string -> interval
(** The series of core ["inorder"] or ["ooo"], interned by name. *)

val end_cycle : machine -> interval -> now:int -> unit
(** Bookkeeping after the clock reaches [now]: [stats.cycles], and the
    interval sample when [now] closes one. *)

val skip_idle : machine -> interval -> from:int -> until:int -> unit
(** Credit the cycles [from .. until-1] as idle, exactly as stepping
    through them would: no context issues, dispatches or retires, so each
    cycle only falls into a Figure-10 stall category (by the main thread's
    [fill_ready] thresholds), advances the round-robin cursor and closes
    the telemetry intervals it reaches. Ends with [stats.cycles = until].
    Allocation-free unless telemetry records a sample. *)

val demand_access :
  machine -> now:int -> ctx:context -> pc:int -> int64 -> Hierarchy.outcome
(** A load's cache access with perfect-delinquent filtering and per-site
    stats recording (main thread only), keyed by the dense {!Layout} pc id.
    With attribution attached, a speculative load at a mapped slice site is
    tagged as a prefetch issue (value-used targets emit no lfetch — the
    load is the prefetch), and main-thread accesses settle outstanding
    prefetches. *)

val pf_tag_of : machine -> context -> Ssp_ir.Iref.t -> Attrib.tag option
(** The attribution tag of a prefetch issued by this context at this
    site, if attribution is on and the site maps to a delinquent load. *)

val watchdog_check : machine -> now:int -> context -> unit
(** Kill a speculative thread that exceeded its instruction budget. *)

val fast_forward : machine -> Exec.env -> now:int -> instrs:int -> int
(** Advance the main thread up to [instrs] architectural instructions with
    functional warming (memory, outputs, caches, branch predictor — no
    timing). Ends live speculative threads first; suppresses chk.c firing
    for the duration. Returns the count actually executed (the main thread
    may halt mid-window). *)
