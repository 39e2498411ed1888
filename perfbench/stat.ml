(* Order statistics for the benchmark's reported metrics. *)

let sorted xs = List.sort Float.compare xs

(* Linear interpolation between closest ranks ([p] in 0..100), the
   definition numpy and most plotting tools use by default. *)
let percentile xs p =
  match sorted xs with
  | [] -> invalid_arg "Stat.percentile: no samples"
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let pos = p /. 100. *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = percentile xs 50.

let beyond = 10

(* The tail a sample set can support: the highest order statistic that
   still has [beyond] samples above it. Returns the value and its
   percentile rank (share of samples at or below it, in percent); with
   too few samples it degrades to the maximum at rank 100. *)
let tail xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stat.tail: no samples"
  else if n <= beyond then (a.(n - 1), 100.)
  else
    (a.(n - 1 - beyond), 100. *. float_of_int (n - beyond) /. float_of_int n)

let geomean xs =
  match xs with
  | [] -> invalid_arg "Stat.geomean: no samples"
  | _ ->
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0. xs
      /. float_of_int (List.length xs))
