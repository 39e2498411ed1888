(* Self-tests of the benchmark's own accounting. *)

open Perfbench

let close = Alcotest.float 1e-9

let test_tail () =
  (* 100 samples 1..100: the 11th largest (90) is the highest value with
     ten samples beyond it, at rank 90%. *)
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  let v, pct = Stat.tail (List.rev xs) in
  Alcotest.check close "value" 90. v;
  Alcotest.check close "percentile" 90. pct;
  let beyond = List.length (List.filter (fun x -> x > v) xs) in
  Alcotest.(check int) "ten beyond" 10 beyond;
  let v, pct = Stat.tail (List.init 1000 float_of_int) in
  Alcotest.check close "p99 of 1000" 989. v;
  Alcotest.check close "rank of 1000" 99. pct;
  let v, pct = Stat.tail [ 3.; 1.; 2. ] in
  Alcotest.check close "too few: maximum" 3. v;
  Alcotest.check close "too few: rank 100" 100. pct

let test_percentile () =
  Alcotest.check close "median even" 2.5 (Stat.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.check close "median odd" 2. (Stat.median [ 3.; 1.; 2. ]);
  Alcotest.check close "p25" 1.75 (Stat.percentile [ 1.; 2.; 3.; 4. ] 25.)

let test_geomean () =
  (* 14 in-order ratios: seven points at 2x and seven at 0.5x. *)
  let xs = List.init 14 (fun i -> if i mod 2 = 0 then 2. else 0.5) in
  Alcotest.check close "14 points" 1. (Stat.geomean xs);
  let xs = List.init 28 (fun _ -> 1.25) in
  Alcotest.check close "28 points" 1.25 (Stat.geomean xs);
  Alcotest.check close "two" 4. (Stat.geomean [ 2.; 8. ])

let adapted asm = Ssp_server.Proto.Adapted { report = ""; asm; cache = "miss" }

let test_failed_ratio () =
  let expected = Verify.digest_outputs [ 42L ] in
  let outputs_of_asm = function "right" -> [ 42L ] | _ -> [ 7L ] in
  let t = Tally.create () in
  let check r = Tally.record t (Verify.check_reply ~expected ~outputs_of_asm r) in
  check (adapted "right");
  check (adapted "right");
  check (adapted "wrong");
  check
    (Ssp_server.Proto.Error_reply { pass = "frontend"; what = "boom"; injected = true });
  Alcotest.(check int) "attempted" 4 t.Tally.attempted;
  Alcotest.(check int) "mismatch and error reply once each" 2 t.Tally.failed;
  Alcotest.check close "ratio" 0.5 (Tally.failed_ratio t);
  Alcotest.(check (list (pair string int)))
    "reasons"
    [ ("error reply: frontend", 1); ("output mismatch", 1) ]
    (Tally.reasons t);
  (* A set-up reply is only checked for being adapted. *)
  let t = Tally.create () in
  Tally.record t (Verify.adapted (adapted "any"));
  Tally.record t (Verify.adapted (Ssp_server.Proto.Busy_reply { retry_after_s = 0.1 }));
  Alcotest.(check (list (pair string int))) "set-up" [ ("busy after retries", 1) ] (Tally.reasons t);
  Alcotest.(check int) "set-up attempted" 2 t.Tally.attempted

let test_served_asm () =
  (* A real served binary round-trips through the reference check. *)
  let prog = Ssp_workloads.Workload.program (Ssp_workloads.Suite.find "mcf") ~scale:1 in
  let asm = Ssp_ir.Asm.to_string prog in
  let expected = Verify.digest_outputs (Ssp_sim.Funcsim.run prog).outputs in
  Alcotest.(check bool) "served asm matches" true
    (Verify.check_reply ~expected ~outputs_of_asm:Verify.served_outputs (adapted asm) = Ok ())

let span id ?(parent = -1) t0 t1 =
  { Spans.id; name = "s"; layer = (if parent < 0 then "p" else "c"); t0; t1; parent; req = 0 }

let test_self_time () =
  (* Parent [0,10]; children [1,3], [2,5] (overlapping) and [7,8]: they
     cover 5 of its 10, so its self time is 5. *)
  let spans =
    [ span 0 0. 10.; span 1 ~parent:0 1. 3.; span 2 ~parent:0 2. 5.; span 3 ~parent:0 7. 8. ]
  in
  let self = Spans.self_times spans in
  Alcotest.check close "parent self" 5.
    (List.assoc 0 (List.map (fun ((s : Spans.span), v) -> (s.id, v)) self));
  Alcotest.(check (list (pair string close)))
    "per layer" [ ("c", 6.); ("p", 5.) ] (Spans.self_by_layer spans);
  (* A child reaching past its parent only counts inside it. *)
  let self = Spans.self_times [ span 0 0. 4.; span 1 ~parent:0 3. 9. ] in
  Alcotest.check close "clipped" 3. (snd (List.hd self))

let () =
  Alcotest.run "perfbench"
    [
      ( "stat",
        [
          Alcotest.test_case "tail has ten samples beyond" `Quick test_tail;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "geomean over 14 and 28 points" `Quick test_geomean;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "mismatch and error reply count once" `Quick test_failed_ratio;
          Alcotest.test_case "served asm checked by funcsim" `Quick test_served_asm;
          Alcotest.test_case "span self time" `Quick test_self_time;
        ] );
    ]
