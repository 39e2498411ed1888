(* Operation accounting: every checked operation is attempted once and
   either succeeds or fails for one named reason. *)

type t = {
  mutable attempted : int;
  mutable failed : int;
  reasons : (string, int) Hashtbl.t;
}

let create () = { attempted = 0; failed = 0; reasons = Hashtbl.create 8 }
let ok t = t.attempted <- t.attempted + 1

let fail t reason =
  t.attempted <- t.attempted + 1;
  t.failed <- t.failed + 1;
  Hashtbl.replace t.reasons reason
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.reasons reason))

let record t = function Ok () -> ok t | Error reason -> fail t reason

let failed_ratio t =
  if t.attempted = 0 then 0.
  else float_of_int t.failed /. float_of_int t.attempted

let reasons t =
  Hashtbl.fold (fun r n acc -> (r, n) :: acc) t.reasons [] |> List.sort compare
