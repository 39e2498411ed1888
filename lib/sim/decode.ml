(* Predecoded flat instruction stream: the one executable form of the ISA.

   The boxed {!Ssp_isa.Op.t} representation costs an interpreter a chain
   of dependent heap loads per instruction (blocks array -> block record ->
   ops array -> constructor block -> argument fields). Decoding each
   function once into flat [int array]s turns the fetch into two contiguous
   array reads and the dispatch into an integer switch. {!Exec.step} is
   the only code that executes these words; [Op.t] stays the IR and the
   source of timing facts (operands, latency).

   Word layout (63-bit OCaml int):

     bits  0..5   opcode
     bits  6..12  d   (destination register, or store source)
     bits 13..19  a   (first source / base register)
     bits 20..26  b   (second source register)
     bits 27..62  imm (signed: memory offset, branch target block index,
                       callee index into [Layout.by_index], live-in slot,
                       or index into [imms] for 64-bit immediates)

   Opcode map:

      0 nop            1 movi d,imms[imm]   2 mov d,a
      3..12  alu  d,a,b     (add sub mul div rem and or xor shl shr)
     13..22  alui d,a,imms[imm]              (same order)
     23..28  cmp  d,a,b     (eq ne lt le gt ge)
     29..34  cmpi d,a,imms[imm]              (same order)
     35..38  load  d,[a+imm]   (widths 1 2 4 8)
     39..42  store [a+imm],d   (widths 1 2 4 8; source in d field)
     43 lfetch [a+imm]    44 br imm       45 brnz a,imm   46 brz a,imm
     47 call imm          48 ret          49 halt         50 kill
     51 chk imm           52 rand d       53 icall a
     54 spawn imms[imm]   (callee index lsl 32 lor block index)
     55 lib.st imm,a      56 lib.ld d,imm (slot; -1 when out of range)
     57 alloc d,a         58 print a

   Every static target (branch, chk.c and spawn labels, call and spawn
   callees) is resolved here; a program naming an unknown one is rejected
   with [Invalid_argument] before anything executes. *)

type t = {
  code : int array array;  (* per block: one packed word per instruction *)
  imms : int64 array;  (* 64-bit immediate pool, shared per function *)
  n_save : int;
      (* how many stacked registers (from [Reg.first_stacked]) this
         function's code mentions: every register it can read or write is
         below that prefix, so a call made FROM this function only needs to
         save/restore that many — the rest can never be observed by the
         code that resumes after the return *)
}

let imm_bits = 36
let imm_mask = (1 lsl imm_bits) - 1
let imm_max = (1 lsl (imm_bits - 1)) - 1
let fits v = v >= -imm_max - 1 && v <= imm_max

let enc ?(d = 0) ?(a = 0) ?(b = 0) ?(imm = 0) opc =
  opc lor (d lsl 6) lor (a lsl 13) lor (b lsl 20)
  lor ((imm land imm_mask) lsl 27)

let alu_code : Ssp_isa.Op.alu -> int = function
  | Add -> 0
  | Sub -> 1
  | Mul -> 2
  | Div -> 3
  | Rem -> 4
  | And -> 5
  | Or -> 6
  | Xor -> 7
  | Shl -> 8
  | Shr -> 9

let cmp_code : Ssp_isa.Op.cmp -> int = function
  | Eq -> 0
  | Ne -> 1
  | Lt -> 2
  | Le -> 3
  | Gt -> 4
  | Ge -> 5

let width_code : Ssp_isa.Op.width -> int = function
  | W1 -> 0
  | W2 -> 1
  | W4 -> 2
  | W8 -> 3

let decode_func ~find (f : Ssp_ir.Prog.func) =
  let fail fmt =
    Printf.ksprintf
      (fun s -> invalid_arg (Printf.sprintf "Decode: function %s: %s" f.name s))
      fmt
  in
  let imms = ref [] and n_imm = ref 0 in
  let imm64 v =
    let k = !n_imm in
    imms := v :: !imms;
    incr n_imm;
    k
  in
  let label_in (g : Ssp_ir.Prog.func) l =
    match Ssp_ir.Prog.block_index g l with
    | i -> i
    | exception Not_found -> fail "no block %s in function %s" l g.name
  in
  let callee name =
    match find name with
    | Some fi -> fi
    | None -> fail "unknown function %s" name
  in
  let off o = if fits o then o else fail "memory offset %d out of range" o in
  let slot s = if fits s then s else -1 in
  let code =
    Array.map
      (fun (b : Ssp_ir.Prog.block) ->
        Array.map
          (fun (op : Ssp_isa.Op.t) ->
            match op with
            | Nop -> enc 0
            | Movi (d, i) -> enc 1 ~d ~imm:(imm64 i)
            | Mov (d, s) -> enc 2 ~d ~a:s
            | Alu (o, d, a, b) -> enc (3 + alu_code o) ~d ~a ~b
            | Alui (o, d, a, i) -> enc (13 + alu_code o) ~d ~a ~imm:(imm64 i)
            | Cmp (o, d, a, b) -> enc (23 + cmp_code o) ~d ~a ~b
            | Cmpi (o, d, a, i) -> enc (29 + cmp_code o) ~d ~a ~imm:(imm64 i)
            | Load (w, d, b, o) -> enc (35 + width_code w) ~d ~a:b ~imm:(off o)
            | Store (w, s, b, o) ->
              enc (39 + width_code w) ~d:s ~a:b ~imm:(off o)
            | Lfetch (b, o) -> enc 43 ~a:b ~imm:(off o)
            | Br l -> enc 44 ~imm:(label_in f l)
            | Brnz (s, l) -> enc 45 ~a:s ~imm:(label_in f l)
            | Brz (s, l) -> enc 46 ~a:s ~imm:(label_in f l)
            | Call (name, _) -> enc 47 ~imm:(fst (callee name))
            | Ret -> enc 48
            | Halt -> enc 49
            | Kill -> enc 50
            | Chk_c l -> enc 51 ~imm:(label_in f l)
            | Rand d -> enc 52 ~d
            | Icall (r, _) -> enc 53 ~a:r
            | Spawn (name, l) ->
              let fi, g = callee name in
              let target = (fi lsl 32) lor label_in g l in
              enc 54 ~imm:(imm64 (Int64.of_int target))
            | Lib_st (s, r) -> enc 55 ~a:r ~imm:(slot s)
            | Lib_ld (d, s) -> enc 56 ~d ~imm:(slot s)
            | Alloc (d, s) -> enc 57 ~d ~a:s
            | Print s -> enc 58 ~a:s)
          b.ops)
      f.blocks
  in
  let max_reg = ref 0 in
  Array.iter
    (fun (b : Ssp_ir.Prog.block) ->
      Array.iter
        (fun op ->
          List.iter
            (fun r -> if r > !max_reg then max_reg := r)
            (Ssp_isa.Op.defs op);
          List.iter
            (fun r -> if r > !max_reg then max_reg := r)
            (Ssp_isa.Op.uses op))
        b.ops)
    f.blocks;
  let n_save = max 0 (!max_reg - Ssp_isa.Reg.first_stacked + 1) in
  { code; imms = Array.of_list (List.rev !imms); n_save }

let empty = { code = [||]; imms = [||]; n_save = 0 }
