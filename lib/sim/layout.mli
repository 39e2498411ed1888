(** Static per-program layout tables: the executable form of a program,
    shared by every interpreter client (functional simulator, profiler,
    cycle simulators, fast-forward).

    One [entry] per function carries:
    - its predecoded code ({!Decode}), the only form {!Exec.step} runs;
    - the absolute program-counter id of every block's first instruction
      (the pc id is a dense global instruction number used as the branch
      predictor index and, scaled by 16, the instruction-fetch address);
    - the static bundle index of every instruction (issue-bandwidth
      accounting in bundle units).

    The numbering replicates the historical pcmap exactly (functions in
    [funcs_in_order] order, blocks sequential), so predictor/BTB indices are
    independent of the lookup structure. [irefs] inverts the numbering —
    the hot loops fetch a preallocated {!Ssp_ir.Iref.t} by pc instead of
    allocating one per instruction. Building the layout decodes every
    function, so an unresolved static target is rejected here. *)

type entry = {
  func : Ssp_ir.Prog.func;
  block_base : int array;  (** absolute pc id of each block's first instr *)
  bundle_idx : int array array;  (** per block: bundle index per instr *)
  blk0_iaddr : int array;
      (** fetch address of each block's first instruction (native int,
          62-bit address space): where the cores and fast-forward touch
          the I-cache *)
  dec : Decode.t;  (** predecoded flat instruction stream *)
}

type t = {
  tbl : (string, entry) Hashtbl.t;
  by_index : entry array;
      (** entries in [funcs_in_order] order; decoded call words index
          this table directly *)
  n_pcs : int;  (** total static instruction count *)
  irefs : Ssp_ir.Iref.t array;  (** pc id → instruction reference *)
}

val dummy : entry
(** Placeholder for a thread that has not started; never returned by
    [find]. *)

val of_prog : Ssp_ir.Prog.t -> t
(** Raises [Invalid_argument] when a function does not decode (see
    {!Decode.decode_func}). *)

val find : t -> string -> entry
(** Raises [Invalid_argument] for an unknown function name. *)

val iref_of : t -> int -> Ssp_ir.Iref.t
