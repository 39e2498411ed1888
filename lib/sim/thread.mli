(** Architectural state of one hardware thread context: program counter,
    register file, register-stack frames, and the live-in buffer views used
    by SSP spawning. *)

type regs = Bytes.t
(** A register file: 8 native-endian bytes per register. An interpreter
    reading and writing it with 64-bit byte loads and stores keeps the
    values unboxed and allocates nothing; unlike a Bigarray it is an
    ordinary heap block, with no finalizer or out-of-heap memory. *)

type frame = {
  saved_stacked : regs;  (** r32–r127 of the caller *)
  mutable saved_n : int;
      (** how many entries of [saved_stacked] the call actually saved; the
          matching return restores exactly that many. [push_frame] sets the
          full count; a direct call saves only the caller's
          mentioned-register prefix and lowers it *)
  mutable ret_blk : int;
  mutable ret_ins : int;
  mutable ret_lay : Layout.entry;
}
(** One register-stack frame. Frames live in a per-thread pool ([frames] up
    to [frame_n]) and are reused across calls — a call blits the stacked
    registers into the pooled frame instead of allocating. *)

type t = {
  id : int;  (** hardware context number *)
  mutable lay : Layout.entry;
      (** the current function's layout and decoded code: the thread
          carries it, so no interpreter ever looks a function up by name
          between calls *)
  mutable blk : int;
  mutable ins : int;
      (** the pc; always {e settled} between instructions: [ins] indexes an
          instruction of block [blk], unless control fell off the end of
          the function ([blk] = block count) *)
  regs : regs;  (** 128 registers; r0 kept at zero *)
  mutable frames : frame array;
      (** frame pool, grown by doubling; [frames.(0 .. frame_n-1)] are the
          live frames, innermost last *)
  mutable frame_n : int;  (** live call depth *)
  mutable live_in : int64 array;  (** snapshot received at spawn *)
  lib_out : int64 array;  (** staging area for the next spawn *)
  mutable speculative : bool;
  mutable active : bool;
  mutable instrs : int;  (** dynamic instructions executed *)
  mutable rand_state : int64;
  mutable addr : int;
      (** effective address of the most recent load, store or prefetch,
          in the 62-bit address space ([land max_int]) *)
}

val lib_slots : int
(** Live-in buffer capacity (one register-stack spill area's worth). *)

val create : id:int -> t

val fn : t -> string
(** Name of the current function. *)

val settle : t -> unit
(** Apply fall-through: while [ins] is past the end of the current block,
    move to the start of the next block. *)

val enter : t -> Layout.entry -> blk:int -> unit
(** Point the thread at the start of a block of a function, settled. *)

val reset_for_spawn :
  t -> lay:Layout.entry -> blk:int -> live_in:int64 array -> rand_state:int64 -> unit
(** Reinitialize a context as a speculative thread starting at the given
    block with the given live-in snapshot. *)

val set : t -> Ssp_isa.Reg.t -> int64 -> unit
(** Write a register (writes to r0 are dropped). *)

val push_frame : t -> ret_blk:int -> ret_ins:int -> frame
(** The next pooled frame, fields set ([ret_lay] from the thread's current
    function) and depth bumped; the caller blits the stacked registers into
    [saved_stacked]. Allocates only when the pool grows. *)
