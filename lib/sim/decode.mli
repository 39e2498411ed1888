(** Predecoded flat instruction stream: the one executable form of the
    ISA, run by {!Exec.step}.

    One packed [int] word per instruction (opcode + register fields +
    signed immediate), 64-bit immediates in a per-function pool. The word
    format and opcode numbering are documented in [decode.ml]. *)

type t = {
  code : int array array;  (** per block: one packed word per instruction *)
  imms : int64 array;  (** 64-bit immediate pool, indexed by [imm] field *)
  n_save : int;
      (** stacked-register prefix this function's code mentions; direct
          calls made from it save/restore only that many (see decode.ml) *)
}

val decode_func :
  find:(string -> (int * Ssp_ir.Prog.func) option) -> Ssp_ir.Prog.func -> t
(** [find] maps a function name to its index in the program's function
    table ([Layout.by_index] order) and its record. Raises
    [Invalid_argument] naming the function and the target when a branch,
    [chk.c], call or spawn names an unknown block or function, or a memory
    offset does not fit the word. *)

val empty : t
(** Placeholder for dummy layout entries. *)
