(** The semantics of the ISA: the one interpreter, over {!Decode}'s packed
    words.

    [step] performs all architectural effects (registers, memory, program
    counter, frames) and reports what happened so the timing models can
    account latency. Timing-directed decisions — whether [Chk_c] finds a
    free context, whether [Spawn] succeeds — are delegated to the [env]
    callbacks; the functional simulator, the profiler, the cycle simulators
    and the fast-forward loop plug in different policies and observe the
    same semantics.

    Speculative threads never write memory or allocate: stores and [Alloc]
    in a speculative context are executed as nops (the tool excludes them
    from slices anyway; the machine enforces it, §2). Loads in speculative
    threads never fault (unmapped memory reads as zero, as everywhere). *)

type env = {
  mem : Memory.t;
  prog : Ssp_ir.Prog.t;
  chk_free : unit -> bool;
      (** does a free hardware context exist right now? *)
  spawn : src:Ssp_ir.Iref.t -> fn:string -> blk:int -> live_in:int64 array -> bool;
      (** try to bind a free context; false = ignored. [src] is the
          spawning [Spawn] instruction (for attribution). *)
  output : int64 -> unit;  (** observable output of [Print] *)
  mutable ev_addr : int64;
      (** unused by [step], which leaves the effective address unboxed in
          [Thread.addr]; kept so existing record literals still build *)
}

(** All constructors are constant (immediate values): the per-instruction
    hot path allocates nothing to report its event. *)
type event =
  | Ev_plain
  | Ev_load  (** address in [Thread.addr] *)
  | Ev_store  (** address in [Thread.addr] *)
  | Ev_prefetch  (** address in [Thread.addr] *)
  | Ev_jump  (** unconditional branch *)
  | Ev_branch_taken  (** conditional branch *)
  | Ev_branch_not_taken  (** conditional branch *)
  | Ev_call
  | Ev_ret
  | Ev_halt
  | Ev_kill
  | Ev_chk_fired
  | Ev_chk_nofire
  | Ev_spawned
  | Ev_spawn_denied
  | Ev_lib  (** live-in buffer access *)

val step : env -> Layout.t -> Thread.t -> event
(** Execute the instruction at the thread's (settled) pc and advance the
    pc, settling it again. The thread must be active; [Layout.t] must be
    the layout of [env.prog]. Fails with [Invalid_argument] when control
    fell off the end of the function. *)
