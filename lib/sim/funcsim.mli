(** Functional (non-timing) whole-program simulation.

    Runs the main thread to completion. Three uses:
    - reference semantics and observable-output capture for tests;
    - profile collection (a hook sees every executed instruction and its
      event, so block frequencies, cache behaviour and call targets can be
      recorded);
    - differential testing of adapted binaries: with [spawning] disabled
      every [Chk_c] behaves as a nop, so an adapted binary must produce
      exactly the original's outputs; with [spawning] enabled speculative
      threads run to completion (interleaved coarsely) and must not change
      the outputs either. *)

type result = {
  outputs : int64 list;  (** values printed by [Print], in order *)
  instrs : int;  (** dynamic instructions of the main thread *)
  spec_instrs : int;  (** dynamic instructions of speculative threads *)
  spawns : int;  (** accepted spawn requests *)
}

val run :
  ?max_instrs:int ->
  ?spawning:bool ->
  ?hook:(Thread.t -> int -> Exec.event -> unit) ->
  Ssp_ir.Prog.t ->
  result
(** Execute from the program entry. [max_instrs] (default 200M) bounds the
    main thread; exceeding it raises [Failure]. The [hook] fires after each
    executed instruction of {e any} thread with the thread (the effective
    address of a memory event is in [Thread.addr]), the dense {!Layout} pc
    id of the instruction ({!Layout.iref_of} maps it back) and its event.
    With [spawning] (default false) a spawned thread runs for a bounded
    slice of instructions interleaved with the main thread, mimicking
    concurrency coarsely; at most 3 speculative contexts exist at once
    (4 contexts − main). A program with an unresolved static target fails
    with [Invalid_argument] before anything runs (see
    {!Decode.decode_func}). *)
