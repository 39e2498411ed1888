(* The host's speed, read from a fixed reference loop.

   The benchmark's host is shared: other tenants slow the same code down
   by up to 1.8x, for seconds or minutes at a time, and every timed
   figure of a run moves with it. The loop below runs just before each
   timed task; a phase's slowness is the median loop time over its
   probes, against [nominal_s]. Dividing the phase's times by its
   slowness gives them as they would read on a host where the loop takes
   [nominal_s]. The loop lives here, not in [lib/], so no change to the
   tool can change it. It allocates nothing and its table fits in the
   L1 cache, so neither the garbage collector nor what ran before it
   moves its time. *)

let nominal_s = 100e-6
let steps = 50_000

(* A fixed permutation to chase: each step's load depends on the last. *)
let table =
  let st = Random.State.make [| 7 |] in
  let a = Array.init 4096 Fun.id in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let loop () =
  let t0 = Unix.gettimeofday () in
  let x = ref 0 and h = ref 0 in
  for i = 1 to steps do
    x := table.(!x);
    h := (!h * 31) + (i lxor !x)
  done;
  ignore (Sys.opaque_identity !h);
  Unix.gettimeofday () -. t0

type t = { mutable probes : float list }

let create () = { probes = [] }

let probe t =
  for _ = 1 to 3 do
    t.probes <- loop () :: t.probes
  done

(* How many times slower than nominal the host ran while [t] was
   probed; 1 before any probe. *)
let slowness t = match t.probes with [] -> 1. | ps -> Stat.median ps /. nominal_s
