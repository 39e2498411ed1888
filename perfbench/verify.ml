(* Output checks against the expected-output reference. A reference is
   the digest of a program's printed outputs under the functional
   simulator, taken on the unadapted program. *)

let digest_outputs (outputs : int64 list) =
  Digest.to_hex
    (Digest.string (String.concat "," (List.map Int64.to_string outputs)))

let check_outputs ~expected outputs =
  if String.equal (digest_outputs outputs) expected then Ok ()
  else Error "output mismatch"

(* Outputs of a served adapted binary, under the functional simulator. *)
let served_outputs asm =
  (Ssp_sim.Funcsim.run (Ssp_ir.Asm.parse asm)).Ssp_sim.Funcsim.outputs

(* An adapt reply that is not [Adapted], as the failure it counts as. *)
let adapted (resp : Ssp_server.Proto.response) =
  match resp with
  | Ssp_server.Proto.Adapted _ -> Ok ()
  | Error_reply { pass; _ } -> Error ("error reply: " ^ pass)
  | Busy_reply _ -> Error "busy after retries"
  | Deadline_exceeded { stage; _ } -> Error ("deadline exceeded: " ^ stage)
  | Simmed _ | Stats_reply _ | Ok_reply | Snapshot_reply _ -> Error "unexpected reply"

(* Classify one served adapt reply. [outputs_of_asm] runs the adapted
   binary (callers memoize it: a warm reply repeats a cold one's bytes). *)
let check_reply ~expected ~outputs_of_asm (resp : Ssp_server.Proto.response) =
  match resp with
  | Ssp_server.Proto.Adapted { asm; _ } -> (
    match outputs_of_asm asm with
    | outputs -> check_outputs ~expected outputs
    | exception e -> Error ("unrunnable reply: " ^ Printexc.to_string e))
  | _ -> adapted resp
