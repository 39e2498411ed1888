(* Regenerates every table and figure of the paper's evaluation, then runs
   Bechamel micro-benchmarks of the tool's own algorithms.

   Usage: main.exe [--quick] [--jobs N] [--trace OUT.JSON] [--json BENCH.JSON]
                   [--check-perf] [--update-baseline] [--baseline PATH]
                   [table1] [fig2] [table2] [fig8] [fig9] [fig10]
                   [hand] [ablate] [perf] [scaling] [serving] [cluster]
                   [telemetry] [simspeed] [feedback] [micro]
   With no selection, everything except [scaling], [serving], [cluster],
   [telemetry], [simspeed] and [feedback] runs in paper order.
   [--quick] switches to small working sets and scaled-down caches (same
   shapes, seconds instead of minutes). [--jobs N] runs the heavy
   simulation/adaptation work across N domains (outputs are identical to
   --jobs 1 by construction). [--trace OUT.JSON] enables the telemetry
   subsystem and dumps the structured run report behind the numbers.
   [--json BENCH.JSON] makes the [perf] section write its numbers
   (per-workload baseline vs. adapted cycles, L1d miss rates, prefetch
   coverage / accuracy / timeliness) as machine-readable JSON — and the
   [scaling] section its jobs=1 vs jobs=N wall-clock comparison (the
   BENCH_3 artifact), which also re-checks that parallel output is
   byte-identical to sequential and exits non-zero if not — and the
   [serving] section its daemon cold/warm adapt latency and warm
   requests/sec — and the [cluster] section its router-vs-direct warm-hit
   latency and 1-vs-2-shard throughput (the BENCH_6 artifact) — and the
   [telemetry] section its instrumentation-on vs -off compute overhead
   (the BENCH_7 artifact) — and the [simspeed] section its raw simulator
   throughput vs. the committed bench/simspeed_baseline.json, its
   allocation probe, and its sampled-vs-full speedup/accuracy table (the
   BENCH_8 artifact; [--update-simspeed] re-records that baseline) — and
   the [feedback] section its report-upload overhead on the warm serving
   path plus tuned-vs-untuned simulated cycles on mcf/em3d after the
   closed loop reaches its fixed point (the BENCH_9 artifact).
   [--check-perf] is a regression gate: it times the jobs=1 pipeline and
   sim phases under --quick (median of 3 runs after a discarded warmup)
   and fails (exit 1) if either regressed more than 25% against the
   committed baseline ([--baseline PATH], default
   bench/perf_baseline.json), or if the telemetry-on run costs more than
   1.5x the telemetry-off run; [--update-baseline] re-records the
   baseline. *)

let ppf = Format.std_formatter

let section title =
  Format.fprintf ppf "@.==== %s ====@.@." title

let wall f =
  let t0 = Unix.gettimeofday () in
  f ();
  Format.fprintf ppf "@.[%.1fs]@." (Unix.gettimeofday () -. t0)

(* ---- perf: machine-readable baseline-vs-adapted summary ---- *)

(* One attributed in-order run per workload: cycles, main-thread L1d miss
   rate, and the aggregate prefetch classification.  Printed as a table
   and, with [--json PATH], written as JSON for CI artifacts. *)

type perf_row = {
  p_name : string;
  p_base_cycles : int;
  p_ssp_cycles : int;
  p_base_l1d_miss : float;
  p_ssp_l1d_miss : float;
  p_issued : int;
  p_useful : int;
  p_late : int;
  p_early_evicted : int;
  p_redundant : int;
  p_dropped : int;
  p_unused : int;
  p_coverage : float;
  p_accuracy : float;
  p_timeliness : float;
  p_spawns : int;
  p_denied : int;
  p_watchdog_kills : int;
}

let perf_row ~setting (w : Ssp_workloads.Workload.t) =
  let a =
    Ssp_harness.Experiment.attributed_run ~setting
      ~pipeline:Ssp_machine.Config.In_order w
  in
  let open Ssp_harness.Experiment in
  let sum f = List.fold_left (fun acc l -> acc + f l) 0 a.a_attrib.Ssp_sim.Attrib.loads in
  let issued = sum (fun l -> l.Ssp_sim.Attrib.ls_issued) in
  let useful = sum (fun l -> l.Ssp_sim.Attrib.ls_useful) in
  let late = sum (fun l -> l.Ssp_sim.Attrib.ls_late) in
  let early = sum (fun l -> l.Ssp_sim.Attrib.ls_early_evicted) in
  let redundant = sum (fun l -> l.Ssp_sim.Attrib.ls_redundant) in
  let dropped = sum (fun l -> l.Ssp_sim.Attrib.ls_dropped) in
  let unused = sum (fun l -> l.Ssp_sim.Attrib.ls_unused) in
  let misses =
    sum (fun l -> l.Ssp_sim.Attrib.ls_demand_accesses - l.Ssp_sim.Attrib.ls_demand_hits)
  in
  let ratio n d = if d = 0 then 0. else float_of_int n /. float_of_int d in
  let th = a.a_attrib.Ssp_sim.Attrib.threads in
  {
    p_name = a.a_name;
    p_base_cycles = a.a_base.Ssp_sim.Stats.cycles;
    p_ssp_cycles = a.a_ssp.Ssp_sim.Stats.cycles;
    p_base_l1d_miss = l1d_miss_rate a.a_base;
    p_ssp_l1d_miss = l1d_miss_rate a.a_ssp;
    p_issued = issued;
    p_useful = useful;
    p_late = late;
    p_early_evicted = early;
    p_redundant = redundant;
    p_dropped = dropped;
    p_unused = unused;
    p_coverage = ratio (useful + late) (misses + useful);
    p_accuracy = ratio useful (issued + redundant + dropped);
    p_timeliness = ratio useful (useful + late);
    p_spawns = th.Ssp_sim.Attrib.th_spawns;
    p_denied = th.Ssp_sim.Attrib.th_denied;
    p_watchdog_kills = th.Ssp_sim.Attrib.th_watchdog_kills;
  }

let perf_json ~setting rows =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf "{\"setting\":\"%s\",\"scale\":%d,\"cache_divisor\":%d,"
       setting.Ssp_harness.Experiment.label
       setting.Ssp_harness.Experiment.scale
       setting.Ssp_harness.Experiment.cache_divisor);
  Buffer.add_string b "\"workloads\":[";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"name\":\"%s\",\"baseline_cycles\":%d,\"adapted_cycles\":%d,\
            \"speedup\":%.4f,\"baseline_l1d_miss_rate\":%.6f,\
            \"adapted_l1d_miss_rate\":%.6f,\"prefetches\":{\"issued\":%d,\
            \"useful\":%d,\"late\":%d,\"early_evicted\":%d,\"redundant\":%d,\
            \"dropped\":%d,\"unused\":%d},\"coverage\":%.6f,\
            \"accuracy\":%.6f,\"timeliness\":%.6f,\"threads\":{\"spawns\":%d,\
            \"denied\":%d,\"watchdog_kills\":%d}}"
           r.p_name r.p_base_cycles r.p_ssp_cycles
           (float_of_int r.p_base_cycles /. float_of_int (max 1 r.p_ssp_cycles))
           r.p_base_l1d_miss r.p_ssp_l1d_miss r.p_issued r.p_useful r.p_late
           r.p_early_evicted r.p_redundant r.p_dropped r.p_unused r.p_coverage
           r.p_accuracy r.p_timeliness r.p_spawns r.p_denied r.p_watchdog_kills))
    rows;
  Buffer.add_string b "]}";
  Buffer.contents b

let perf ~setting ~jobs ~json () =
  let rows =
    if jobs <= 1 then List.map (perf_row ~setting) Ssp_workloads.Suite.all
    else
      Ssp_parallel.Pool.with_pool ~jobs (fun pool ->
          Ssp_parallel.Pool.map pool (perf_row ~setting)
            Ssp_workloads.Suite.all)
  in
  Format.fprintf ppf
    "%-12s %12s %12s %8s %8s %8s   %s@." "workload" "base cyc" "ssp cyc"
    "speedup" "cover" "accur" "useful/late/early/redund/drop";
  List.iter
    (fun r ->
      Format.fprintf ppf
        "%-12s %12d %12d %7.2fx %7.1f%% %7.1f%%   %d/%d/%d/%d/%d@." r.p_name
        r.p_base_cycles r.p_ssp_cycles
        (float_of_int r.p_base_cycles /. float_of_int (max 1 r.p_ssp_cycles))
        (100. *. r.p_coverage) (100. *. r.p_accuracy) r.p_useful r.p_late
        r.p_early_evicted r.p_redundant r.p_dropped)
    rows;
  match json with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc (perf_json ~setting rows);
    output_char oc '\n';
    close_out oc;
    Format.fprintf ppf "@.perf JSON written to %s@." path

(* ---- scaling: jobs=1 vs jobs=N wall clock + byte-identity check ---- *)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* The two phases the parallel engine accelerates, measured end to end
   over the whole suite: the adaptation pipeline (per-delinquent-load
   fan-out inside [Adapt.run]) and the simulation grid (one machine per
   point). Returns the phase results so callers can compare renderings. *)
let scaling_phases ~setting ~jobs =
  let open Ssp_harness.Experiment in
  let cfg = config_for setting Ssp_machine.Config.In_order in
  let inputs =
    List.map
      (fun (w : Ssp_workloads.Workload.t) ->
        let prog =
          Ssp_workloads.Workload.program w ~scale:setting.scale
        in
        let profile = Ssp_profiling.Collect.collect ~config:cfg prog in
        (prog, profile))
      Ssp_workloads.Suite.all
  in
  let adapted, pipeline_s =
    time (fun () ->
        List.map
          (fun (prog, profile) ->
            Ssp.Adapt.run ~jobs ~config:cfg prog profile)
          inputs)
  in
  let points =
    List.concat_map
      (fun ((prog, _), (r : Ssp.Adapt.result)) -> [ prog; r.Ssp.Adapt.prog ])
      (List.combine inputs adapted)
  in
  let stats, sim_s =
    time (fun () ->
        if jobs <= 1 then List.map (fun p -> Ssp_sim.Inorder.run cfg p) points
        else
          Ssp_parallel.Pool.with_pool ~jobs (fun pool ->
              Ssp_parallel.Pool.map pool
                (fun p -> Ssp_sim.Inorder.run cfg p)
                points))
  in
  (adapted, stats, pipeline_s, sim_s)

let render_result (r : Ssp.Adapt.result) =
  Format.asprintf "%a@.%a" Ssp_ir.Prog.pp r.Ssp.Adapt.prog Ssp.Report.pp
    r.Ssp.Adapt.report

let render_stats (s : Ssp_sim.Stats.t) =
  Format.asprintf "%a" Ssp_sim.Stats.pp s

let scaling ~setting ~jobs ~json () =
  let jobs = max 2 jobs in
  let a1, s1, pipe1, sim1 = scaling_phases ~setting ~jobs:1 in
  let an, sn, pipen, simn = scaling_phases ~setting ~jobs in
  let identical =
    List.for_all2
      (fun a b -> String.equal (render_result a) (render_result b))
      a1 an
    && List.for_all2
         (fun a b -> String.equal (render_stats a) (render_stats b))
         s1 sn
  in
  Format.fprintf ppf "%-22s %10s %10s %8s@." "phase" "jobs=1 (s)"
    (Printf.sprintf "jobs=%d (s)" jobs)
    "speedup";
  Format.fprintf ppf "%-22s %10.2f %10.2f %7.2fx@." "adaptation pipeline"
    pipe1 pipen
    (pipe1 /. Float.max 1e-9 pipen);
  Format.fprintf ppf "%-22s %10.2f %10.2f %7.2fx@." "simulation grid" sim1
    simn
    (sim1 /. Float.max 1e-9 simn);
  Format.fprintf ppf "@.parallel output byte-identical to sequential: %b@."
    identical;
  (match json with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    Printf.fprintf oc
      "{\"setting\":\"%s\",\"jobs\":%d,\"identical\":%b,\
       \"pipeline\":{\"jobs1_s\":%.4f,\"jobsN_s\":%.4f,\"speedup\":%.3f},\
       \"sim\":{\"jobs1_s\":%.4f,\"jobsN_s\":%.4f,\"speedup\":%.3f}}\n"
      setting.Ssp_harness.Experiment.label jobs identical pipe1 pipen
      (pipe1 /. Float.max 1e-9 pipen)
      sim1 simn
      (sim1 /. Float.max 1e-9 simn);
    close_out oc;
    Format.fprintf ppf "@.scaling JSON written to %s@." path);
  if not identical then begin
    Format.fprintf ppf
      "@.FAIL: jobs=%d output diverges from the sequential run@." jobs;
    exit 1
  end

(* ---- serving: daemon cold/warm latency and warm throughput ---- *)

(* Host the daemon in-process on a thread, time one cold and one warm
   'adapt mcf' (the warm one must be a cache hit), then measure warm
   requests/sec with two client threads against a jobs=2 pool. Uses the
   test scale: serving latency is about the store, not the working set. *)
let serving ~json () =
  let dir = Filename.temp_dir "sspc_bench_serving" "" in
  let socket = Filename.concat dir "d.sock" in
  let cfg =
    {
      Ssp_server.Server.socket = Some socket;
      tcp = None;
      jobs = 2;
      cache =
        Some (Ssp_store.Store.Cache.open_dir (Filename.concat dir "cache"));
      max_frame = Ssp_server.Proto.default_max_frame;
      timeout_s = 300.;
      max_batch = 32;
      max_queue = 256;
      retry_after_s = 0.2;
      tune = false;
    }
  in
  let th = Thread.create Ssp_server.Server.serve cfg in
  let rec wait tries =
    if tries = 0 then failwith "serving bench: daemon never came up";
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> Unix.close fd
    | exception Unix.Unix_error _ ->
      Unix.close fd;
      Thread.delay 0.05;
      wait (tries - 1)
  in
  wait 100;
  let scale = Ssp_workloads.Suite.test_scale in
  let adapt name =
    match
      Ssp_server.Client.request ~socket
        (Ssp_server.Proto.Adapt
           { prog = Ssp_server.Proto.Workload name; scale;
             pipeline = "inorder";
             tenant = Ssp_server.Proto.default_tenant })
    with
    | Ssp_server.Proto.Adapted { cache; _ } -> cache
    | Ssp_server.Proto.Error_reply { pass; what; _ } ->
      failwith (Printf.sprintf "serving bench: server error [%s]: %s" pass what)
    | _ -> failwith "serving bench: unexpected reply"
  in
  let cold_status, cold_s = time (fun () -> adapt "mcf") in
  let warm_status, warm_s = time (fun () -> adapt "mcf") in
  ignore (adapt "em3d");
  let n_requests = 40 in
  let (), total_s =
    time (fun () ->
        let clients =
          List.init 2 (fun i ->
              Thread.create
                (fun () ->
                  for k = 1 to n_requests / 2 do
                    ignore (adapt (if (i + k) mod 2 = 0 then "mcf" else "em3d"))
                  done)
                ())
        in
        List.iter Thread.join clients)
  in
  let rps = float_of_int n_requests /. total_s in
  (match Ssp_server.Client.request ~socket Ssp_server.Proto.Shutdown with
  | Ssp_server.Proto.Ok_reply -> ()
  | _ -> failwith "serving bench: shutdown not acknowledged");
  Thread.join th;
  Format.fprintf ppf "%-34s %8.3fs  (cache %s)@." "cold adapt mcf" cold_s
    cold_status;
  Format.fprintf ppf "%-34s %8.3fs  (cache %s, %.1fx faster)@."
    "warm adapt mcf" warm_s warm_status
    (cold_s /. Float.max 1e-9 warm_s);
  Format.fprintf ppf "%-34s %8.1f req/s  (%d warm requests, jobs=2)@."
    "warm throughput" rps n_requests;
  match json with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    Printf.fprintf oc
      "{\"section\":\"serving\",\"jobs\":2,\"cold\":{\"seconds\":%.4f,\
       \"cache\":\"%s\"},\"warm\":{\"seconds\":%.4f,\"cache\":\"%s\"},\
       \"warm_speedup\":%.3f,\"throughput\":{\"requests\":%d,\
       \"seconds\":%.4f,\"rps\":%.2f}}\n"
      cold_s cold_status warm_s warm_status
      (cold_s /. Float.max 1e-9 warm_s)
      n_requests total_s rps;
    close_out oc;
    Format.fprintf ppf "@.serving JSON written to %s@." path

(* ---- feedback: upload overhead and tuned-vs-untuned cycles ---- *)

(* Two questions about the closed loop (BENCH_9): what does uploading an
   attribution report add to a warm serving path, and what does a tuning
   round buy in simulated cycles once the tuner reaches its fixed point
   on mcf and em3d. *)
let feedback_bench ~json () =
  let module Fb = Ssp_feedback.Feedback in
  (* Upload overhead: warm daemon, tune off; time warm adapts alone,
     then adapt+upload pairs. *)
  let dir = Filename.temp_dir "sspc_bench_feedback" "" in
  let socket = Filename.concat dir "d.sock" in
  let cfg =
    {
      Ssp_server.Server.socket = Some socket;
      tcp = None;
      jobs = 2;
      cache =
        Some (Ssp_store.Store.Cache.open_dir (Filename.concat dir "cache"));
      max_frame = Ssp_server.Proto.default_max_frame;
      timeout_s = 300.;
      max_batch = 32;
      max_queue = 256;
      retry_after_s = 0.2;
      tune = false;
    }
  in
  let th = Thread.create Ssp_server.Server.serve cfg in
  let rec wait tries =
    if tries = 0 then failwith "feedback bench: daemon never came up";
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> Unix.close fd
    | exception Unix.Unix_error _ ->
      Unix.close fd;
      Thread.delay 0.05;
      wait (tries - 1)
  in
  wait 100;
  let scale = Ssp_workloads.Suite.test_scale in
  let adapt () =
    match
      Ssp_server.Client.request ~socket
        (Ssp_server.Proto.Adapt
           { prog = Ssp_server.Proto.Workload "em3d"; scale;
             pipeline = "inorder";
             tenant = Ssp_server.Proto.default_tenant })
    with
    | Ssp_server.Proto.Adapted _ -> ()
    | Ssp_server.Proto.Error_reply { pass; what; _ } ->
      failwith
        (Printf.sprintf "feedback bench: server error [%s]: %s" pass what)
    | _ -> failwith "feedback bench: unexpected reply"
  in
  let report i =
    (* A realistic small report; distinct cycles defeat the store's
       content-addressed dedup so every upload pays the full path. *)
    {
      Fb.fr_prog = Fb.Named "em3d";
      fr_scale = scale;
      fr_pipeline = "inorder";
      fr_version = 0;
      fr_cycles = 100_000 + i;
      fr_loads =
        [
          {
            Fb.fl_load = Ssp_ir.Iref.make "bench" 0 0;
            fl_issued = 900;
            fl_useful = 700;
            fl_late = 100;
            fl_early_evicted = 40;
            fl_redundant = 60;
            fl_dropped = 0;
            fl_unused = 100;
            fl_demand_accesses = 2000;
            fl_demand_hits = 1200;
            fl_lead_hist = Ssp_telemetry.Telemetry.empty_hist_summary ();
          };
        ];
    }
  in
  let upload i =
    match
      Ssp_server.Client.request ~socket
        (Ssp_server.Proto.Feedback
           { prog = Ssp_server.Proto.Workload "em3d"; scale;
             pipeline = "inorder";
             tenant = Ssp_server.Proto.default_tenant;
             blob = Fb.encode_report (report i) })
    with
    | Ssp_server.Proto.Ok_reply -> ()
    | Ssp_server.Proto.Error_reply { pass; what; _ } ->
      failwith
        (Printf.sprintf "feedback bench: upload error [%s]: %s" pass what)
    | _ -> failwith "feedback bench: unexpected upload reply"
  in
  adapt ();
  (* warm the store *)
  upload 0;
  (* warm the profile/compile path the ingest takes *)
  let n = 30 in
  let (), plain_s = time (fun () -> for _ = 1 to n do adapt () done) in
  let (), paired_s =
    time (fun () ->
        for i = 1 to n do
          adapt ();
          upload i
        done)
  in
  (match Ssp_server.Client.request ~socket Ssp_server.Proto.Shutdown with
  | Ssp_server.Proto.Ok_reply -> ()
  | _ -> failwith "feedback bench: shutdown not acknowledged");
  Thread.join th;
  let per_upload_ms = (paired_s -. plain_s) /. float_of_int n *. 1e3 in
  let overhead = (paired_s -. plain_s) /. Float.max 1e-9 plain_s in
  Format.fprintf ppf "%-34s %8.3fs  (%d warm adapts)@." "warm path, no uploads"
    plain_s n;
  Format.fprintf ppf "%-34s %8.3fs  (+%.2f ms/upload, %+.1f%%)@."
    "warm path + report uploads" paired_s per_upload_ms (100. *. overhead);
  (* Tuned vs untuned: run the offline loop to its fixed point, then
     compare simulated cycles and redundant prefetches. *)
  let tuned_vs_untuned name =
    let config = Ssp_machine.Config.in_order in
    let prog =
      Ssp_workloads.Workload.program (Ssp_workloads.Suite.find name) ~scale:2
    in
    let profile = Ssp_profiling.Collect.collect ~config prog in
    let simulate (result : Ssp.Adapt.result) =
      let attrib =
        Ssp_sim.Attrib.create ~prefetch_map:result.Ssp.Adapt.prefetch_map ()
      in
      let stats = Ssp_sim.Inorder.run ~attrib config result.Ssp.Adapt.prog in
      let summary = Ssp_sim.Attrib.summary attrib in
      let redundant =
        List.fold_left
          (fun acc (l : Ssp_sim.Attrib.load_summary) -> acc + l.ls_redundant)
          0 summary.Ssp_sim.Attrib.loads
      in
      (stats.Ssp_sim.Stats.cycles, redundant, summary)
    in
    let cache =
      Ssp_store.Store.Cache.open_dir
        (Filename.concat dir ("tune-" ^ name))
    in
    let r0, _ = Ssp_store.Store.run_cached ~cache ~config prog profile in
    let cycles0, red0, sum0 = simulate r0 in
    let mk version cycles summary =
      Fb.report_of_attrib ~prog:(Fb.Named name) ~scale:2 ~pipeline:"inorder"
        ~version ~cycles summary
    in
    let rec converge reports best n =
      if n > 6 then best
      else
        match
          Fb.tune_reports ~cache ~now:50. ~min_reports:1 ~config prog profile
            reports
        with
        | None -> best
        | Some t ->
          let v = t.Fb.td_aggregate.Fb.ag_version in
          let cycles, red, summary = simulate t.Fb.td_result in
          converge (mk v cycles summary :: reports) (v, cycles, red) (n + 1)
    in
    let versions, cycles_t, red_t =
      converge [ mk 0 cycles0 sum0 ] (0, cycles0, red0) 0
    in
    Format.fprintf ppf
      "%-34s %8d -> %d cycles  (redundant %d -> %d, %d round%s)@."
      (name ^ " tuned vs untuned") cycles0 cycles_t red0 red_t versions
      (if versions = 1 then "" else "s");
    (name, cycles0, cycles_t, red0, red_t, versions)
  in
  let rows = List.map tuned_vs_untuned [ "mcf"; "em3d" ] in
  match json with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    Printf.fprintf oc
      "{\"section\":\"feedback\",\"upload\":{\"warm_requests\":%d,\
       \"plain_s\":%.4f,\"paired_s\":%.4f,\"per_upload_ms\":%.4f,\
       \"overhead\":%.4f},\"workloads\":[%s]}\n"
      n plain_s paired_s per_upload_ms overhead
      (String.concat ","
         (List.map
            (fun (name, c0, ct, r0, rt, v) ->
              Printf.sprintf
                "{\"name\":\"%s\",\"untuned_cycles\":%d,\"tuned_cycles\":%d,\
                 \"untuned_redundant\":%d,\"tuned_redundant\":%d,\
                 \"versions\":%d}"
                name c0 ct r0 rt v)
            rows));
    close_out oc;
    Format.fprintf ppf "@.feedback JSON written to %s@." path

(* ---- cluster: router overhead and 1-vs-2-shard throughput ---- *)

(* Host 1- and 2-shard TCP clusters fully in-process: shard daemons on
   ephemeral TCP ports (their own caches), routers on Unix sockets. The
   interesting numbers are (a) what the extra router hop costs on a warm
   hit against talking to the owning shard directly, and (b) how warm
   requests/sec scale going from one shard to two. *)
let cluster ~json () =
  let dir = Filename.temp_dir "sspc_bench_cluster" "" in
  let scale = Ssp_workloads.Suite.test_scale in
  let start_shard ?(jobs = 2) i =
    let port = ref None in
    let cfg =
      {
        Ssp_server.Server.socket = None;
        tcp = Some ("127.0.0.1", 0);
        jobs;
        cache =
          Some
            (Ssp_store.Store.Cache.open_dir
               (Filename.concat dir (Printf.sprintf "cache%d" i)));
        max_frame = Ssp_server.Proto.default_max_frame;
        timeout_s = 300.;
        max_batch = 32;
        max_queue = 256;
        retry_after_s = 0.2;
        tune = false;
      }
    in
    let th =
      Thread.create
        (fun () ->
          Ssp_server.Server.serve
            ~ready:(fun ~tcp_port -> port := tcp_port)
            cfg)
        ()
    in
    let rec wait tries =
      if tries = 0 then failwith "cluster bench: shard never came up";
      match !port with
      | Some p -> p
      | None ->
        Thread.delay 0.01;
        wait (tries - 1)
    in
    (th, wait 500)
  in
  let start_router ?(replicate = true) name shards =
    let socket = Filename.concat dir (name ^ ".sock") in
    let cfg =
      {
        (Ssp_cluster.Router.default_config ~shards) with
        Ssp_cluster.Router.socket = Some socket;
        replicate;
      }
    in
    let up = ref false in
    let th =
      Thread.create
        (fun () ->
          Ssp_cluster.Router.serve ~ready:(fun ~tcp_port:_ -> up := true) cfg)
        ()
    in
    let rec wait tries =
      if tries = 0 then failwith "cluster bench: router never came up"
      else if not !up then begin
        Thread.delay 0.01;
        wait (tries - 1)
      end
    in
    wait 500;
    (th, socket)
  in
  let adapt addr name =
    match
      Ssp_server.Client.request_addr addr
        (Ssp_server.Proto.Adapt
           { prog = Ssp_server.Proto.Workload name; scale;
             pipeline = "inorder";
             tenant = Ssp_server.Proto.default_tenant })
    with
    | Ssp_server.Proto.Adapted { cache; _ } -> cache
    | Ssp_server.Proto.Error_reply { pass; what; _ } ->
      failwith (Printf.sprintf "cluster bench: server error [%s]: %s" pass what)
    | _ -> failwith "cluster bench: unexpected reply"
  in
  let shutdown addr =
    match Ssp_server.Client.request_addr addr Ssp_server.Proto.Shutdown with
    | Ssp_server.Proto.Ok_reply -> ()
    | _ -> failwith "cluster bench: shutdown not acknowledged"
  in
  let th1, p1 = start_shard 1 in
  let th2, p2 = start_shard 2 in
  let shards2 = [ ("127.0.0.1", p1); ("127.0.0.1", p2) ] in
  let r1_th, r1_sock = start_router "router1" [ ("127.0.0.1", p1) ] in
  let r2_th, r2_sock = start_router "router2" shards2 in
  let r1 = Ssp_server.Client.Unix_sock r1_sock in
  let r2 = Ssp_server.Client.Unix_sock r2_sock in
  (* Warm both workloads through both routers (each warms the shard the
     key lands on; router1's single shard holds both keys). *)
  List.iter
    (fun name ->
      ignore (adapt r1 name);
      ignore (adapt r2 name))
    [ "mcf"; "em3d" ];
  (* Direct warm-hit target: the shard the 2-shard ring places mcf on —
     computed, not guessed, from the same ring the router uses. *)
  let owner_of name =
    let ring =
      Ssp_cluster.Ring.create
        (List.map Ssp_cluster.Router.node_of_shard shards2)
    in
    let req =
      Ssp_server.Proto.Adapt
        { prog = Ssp_server.Proto.Workload name; scale; pipeline = "inorder";
          tenant = Ssp_server.Proto.default_tenant }
    in
    let key = Option.get (Ssp_cluster.Router.affinity_key req) in
    match Ssp_cluster.Ring.lookup ring key with
    | Some node ->
      List.find (fun s -> Ssp_cluster.Router.node_of_shard s = node) shards2
    | None -> failwith "cluster bench: empty ring"
  in
  let owner_host, owner_port = owner_of "mcf" in
  let direct = Ssp_server.Client.Tcp (owner_host, owner_port) in
  let reps = 20 in
  let avg addr =
    let _, s =
      time (fun () ->
          for _ = 1 to reps do
            if not (String.equal (adapt addr "mcf") "hit") then
              failwith "cluster bench: expected a warm hit"
          done)
    in
    s /. float_of_int reps
  in
  let direct_s = avg direct in
  let routed_s = avg r2 in
  let throughput addr =
    let n_requests = 40 in
    let (), total_s =
      time (fun () ->
          let clients =
            List.init 2 (fun i ->
                Thread.create
                  (fun () ->
                    for k = 1 to n_requests / 2 do
                      ignore
                        (adapt addr (if (i + k) mod 2 = 0 then "mcf" else "em3d"))
                    done)
                  ())
          in
          List.iter Thread.join clients)
    in
    float_of_int n_requests /. total_s
  in
  let rps1 = throughput r1 in
  let rps2 = throughput r2 in
  shutdown r1;
  shutdown r2;
  shutdown (Ssp_server.Client.Tcp ("127.0.0.1", p1));
  shutdown (Ssp_server.Client.Tcp ("127.0.0.1", p2));
  List.iter Thread.join [ r1_th; r2_th; th1; th2 ];
  (* Replication write-through cost on the cold path: the same cold
     adapt through a replicating 2-shard cluster vs one with
     replication off — fresh shards each, so both compute exactly once
     and the delta is the synchronous Put_blob to the successor. *)
  let cold_adapt_s ~replicate idx =
    let tha, pa = start_shard (10 + (2 * idx)) in
    let thb, pb = start_shard (11 + (2 * idx)) in
    let shards = [ ("127.0.0.1", pa); ("127.0.0.1", pb) ] in
    let r_th, r_sock =
      start_router ~replicate (Printf.sprintf "router_repl%d" idx) shards
    in
    let router = Ssp_server.Client.Unix_sock r_sock in
    let (), s = time (fun () -> ignore (adapt router "mst")) in
    shutdown router;
    shutdown (Ssp_server.Client.Tcp ("127.0.0.1", pa));
    shutdown (Ssp_server.Client.Tcp ("127.0.0.1", pb));
    List.iter Thread.join [ r_th; tha; thb ];
    s
  in
  let cold_repl_s = cold_adapt_s ~replicate:true 0 in
  let cold_norepl_s = cold_adapt_s ~replicate:false 1 in
  (* Deadline shedding under saturation: a jobs=1 shard takes a burst of
     already-expired budgets (shed at admission), tight budgets (shed at
     compute once the queue eats them), and unbounded requests (served);
     the split is read back through the snapshot plane, the same way an
     operator would. *)
  let module T = Ssp_telemetry.Telemetry in
  let module Snapshot = Ssp_server.Snapshot in
  let t_was = !T.enabled in
  T.set_enabled true;
  let th_d, p_d = start_shard ~jobs:1 20 in
  let shard_d = Ssp_server.Client.Tcp ("127.0.0.1", p_d) in
  let snapshot_counter name =
    match Ssp_server.Client.request_addr shard_d Ssp_server.Proto.Stats_snapshot with
    | Ssp_server.Proto.Snapshot_reply { snapshot } ->
      Option.value ~default:0
        (List.assoc_opt name (Snapshot.decode snapshot).Snapshot.counters)
    | _ -> failwith "cluster bench: expected a snapshot"
  in
  let shed_counters =
    [
      "server.deadline.shed_admission"; "server.deadline.shed_compute";
      "server.deadline.shed_serialize"; "server.tenant.anon.served";
    ]
  in
  let before = List.map snapshot_counter shed_counters in
  (* A tight budget caps the socket timeout too, so the client may give
     up (EAGAIN) before the structured shed reply arrives — that is the
     deadline working; the server-side counters are what we read. *)
  let fire deadline_ms name =
    match
      Ssp_server.Client.request_env ~deadline_ms shard_d
        (Ssp_server.Proto.Adapt
           { prog = Ssp_server.Proto.Workload name; scale;
             pipeline = "inorder"; tenant = Ssp_server.Proto.default_tenant })
    with
    | _ -> ()
    | exception Unix.Unix_error _ -> ()
    | exception Ssp_ir.Error.Error _ -> ()
  in
  for _ = 1 to 5 do fire (-1.) "mcf" done;
  for _ = 1 to 5 do fire 0.5 "health" done;
  for _ = 1 to 5 do fire 0. "mcf" done;
  let after = List.map snapshot_counter shed_counters in
  let shed_admission, shed_compute, shed_serialize, served =
    match List.map2 ( - ) after before with
    | [ a; c; z; s ] -> (a, c, z, s)
    | _ -> (0, 0, 0, 0)
  in
  shutdown shard_d;
  Thread.join th_d;
  T.set_enabled t_was;
  Format.fprintf ppf "%-34s %8.3f ms@." "warm hit, direct to owning shard"
    (direct_s *. 1e3);
  Format.fprintf ppf "%-34s %8.3f ms  (%.2fx direct)@."
    "warm hit, via router" (routed_s *. 1e3)
    (routed_s /. Float.max 1e-9 direct_s);
  Format.fprintf ppf "%-34s %8.1f req/s@." "warm throughput, 1 shard" rps1;
  Format.fprintf ppf "%-34s %8.1f req/s  (%.2fx)@."
    "warm throughput, 2 shards" rps2
    (rps2 /. Float.max 1e-9 rps1);
  Format.fprintf ppf "%-34s %8.3f ms@." "cold adapt, replication off"
    (cold_norepl_s *. 1e3);
  Format.fprintf ppf "%-34s %8.3f ms  (%.2fx)@." "cold adapt, replication on"
    (cold_repl_s *. 1e3)
    (cold_repl_s /. Float.max 1e-9 cold_norepl_s);
  Format.fprintf ppf
    "%-34s %8d admission / %d compute / %d serialize / %d served@."
    "deadline shed (15 requests)" shed_admission shed_compute shed_serialize
    served;
  match json with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    Printf.fprintf oc
      "{\"section\":\"cluster\",\"warm_hit\":{\"direct_s\":%.6f,\
       \"routed_s\":%.6f,\"router_overhead\":%.3f},\
       \"throughput\":{\"shards1_rps\":%.2f,\"shards2_rps\":%.2f,\
       \"scaling\":%.3f},\
       \"replication\":{\"cold_repl_s\":%.6f,\"cold_norepl_s\":%.6f,\
       \"overhead\":%.3f},\
       \"deadline\":{\"shed_admission\":%d,\"shed_compute\":%d,\
       \"shed_serialize\":%d,\"served\":%d}}\n"
      direct_s routed_s
      (routed_s /. Float.max 1e-9 direct_s)
      rps1 rps2
      (rps2 /. Float.max 1e-9 rps1)
      cold_repl_s cold_norepl_s
      (cold_repl_s /. Float.max 1e-9 cold_norepl_s)
      shed_admission shed_compute shed_serialize served;
    close_out oc;
    Format.fprintf ppf "@.cluster JSON written to %s@." path

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let json_float s key =
  let pat = "\"" ^ key ^ "\":" in
  let n = String.length s and m = String.length pat in
  let rec find i =
    if i + m > n then None
    else if String.equal (String.sub s i m) pat then Some (i + m)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some i ->
    let j = ref i in
    while
      !j < n
      && (match s.[!j] with
         | '0' .. '9' | '.' | '-' | '+' | 'e' | 'E' -> true
         | _ -> false)
    do
      incr j
    done;
    float_of_string_opt (String.sub s i (!j - i))

(* ---- simspeed: raw simulator throughput (BENCH_8) ---- *)

(* Cycles/second of the full-detail cycle cores, measured end to end on
   compiled workloads (no adaptation — this times the simulator itself).
   Each timed number is the median of 3 runs after one discarded warmup
   run, the same discipline as --check-perf. The committed
   bench/simspeed_baseline.json pins the pre-overhaul numbers so the
   section can report the speedup of the flat-array cores against them. *)

let median3 f =
  ignore (f ()) (* warmup: page in code, warm allocator *);
  let xs = List.sort compare [ f (); f (); f () ] in
  List.nth xs 1

let simspeed_workloads = [ "mcf"; "em3d" ]

let simspeed_point ~setting ~core =
  let open Ssp_harness.Experiment in
  let pipeline =
    match core with
    | `Inorder -> Ssp_machine.Config.In_order
    | `Ooo -> Ssp_machine.Config.Out_of_order
  in
  let cfg = config_for setting pipeline in
  let progs =
    List.map
      (fun name ->
        Ssp_workloads.Workload.program
          (Ssp_workloads.Suite.find name)
          ~scale:setting.scale)
      simspeed_workloads
  in
  let run () =
    let cycles = ref 0 in
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun p ->
        let s =
          match core with
          | `Inorder -> Ssp_sim.Inorder.run cfg p
          | `Ooo -> Ssp_sim.Ooo.run cfg p
        in
        cycles := !cycles + s.Ssp_sim.Stats.cycles)
      progs;
    let dt = Unix.gettimeofday () -. t0 in
    (!cycles, dt)
  in
  let cycles, dt = median3 run in
  float_of_int cycles /. Float.max 1e-9 dt /. 1e6

(* Minor-heap words allocated per simulated cycle on a full-detail run.
   The core loops themselves are allocation-free (pooled threads/frames,
   flat arrays, unboxed registers, no per-cycle closures); what remains
   is the boxed values Memory returns for loads and the Int64 addresses
   and outcome records of the cores' hierarchy calls. The number is a
   tripwire: reintroducing a per-cycle closure, queue, or list shows up
   as a multiple of it. *)
let alloc_probe ~setting ~core =
  let open Ssp_harness.Experiment in
  let pipeline, run =
    match core with
    | `Inorder -> (Ssp_machine.Config.In_order, Ssp_sim.Inorder.run ?attrib:None ?sampling:None)
    | `Ooo -> (Ssp_machine.Config.Out_of_order, Ssp_sim.Ooo.run ?attrib:None ?sampling:None)
  in
  let cfg = config_for setting pipeline in
  let prog =
    Ssp_workloads.Workload.program
      (Ssp_workloads.Suite.find "mcf")
      ~scale:setting.scale
  in
  ignore (run cfg prog) (* warm the memo pools; measure steady state *);
  let w0 = Gc.minor_words () in
  let s = run cfg prog in
  let dw = Gc.minor_words () -. w0 in
  dw /. float_of_int (max 1 s.Ssp_sim.Stats.cycles)

let simspeed_bench ~json () =
  let open Ssp_harness.Experiment in
  (* Full-detail throughput at the quick setting — the geometry the
     committed baseline was recorded with. *)
  let setting = quick in
  let io = simspeed_point ~setting ~core:`Inorder in
  let oo = simspeed_point ~setting ~core:`Ooo in
  let base =
    match read_file "bench/simspeed_baseline.json" with
    | exception Sys_error _ -> None
    | s -> (
      match (json_float s "inorder_mcps", json_float s "ooo_mcps") with
      | Some a, Some b -> Some (a, b)
      | _ -> None)
  in
  Format.fprintf ppf "full-detail throughput (quick, median of 3):@.";
  let ratio measured b = measured /. Float.max 1e-9 b in
  (match base with
  | Some (bio, boo) ->
    Format.fprintf ppf "  inorder %6.2f Mcyc/s  (baseline %5.2f, %4.2fx)@." io
      bio (ratio io bio);
    Format.fprintf ppf "  ooo     %6.2f Mcyc/s  (baseline %5.2f, %4.2fx)@." oo
      boo (ratio oo boo)
  | None ->
    Format.fprintf ppf
      "  inorder %6.2f Mcyc/s, ooo %6.2f Mcyc/s (no baseline file)@." io oo);
  let aw_io = alloc_probe ~setting ~core:`Inorder in
  let aw_oo = alloc_probe ~setting ~core:`Ooo in
  Format.fprintf ppf
    "  allocation: %.3f minor words/cycle inorder, %.3f ooo@." aw_io aw_oo;
  (* Sampled mode: full vs sampled wall clock and IPC error, every suite
     workload on both cores. A larger scale than quick so the
     detail/fast-forward alternation has room to amortize — the regime
     sampling exists for. The speedup is the median of 3 full/sampled
     ratio measurements (the shortest runs are a fraction of a second,
     where a single sample is at the mercy of the scheduler); the IPC
     error needs no repetition, both runs are deterministic. *)
  let sset = { quick with scale = 8; label = "simspeed" } in
  let sampling = Ssp_sim.Smt.default_sampling in
  Format.fprintf ppf
    "sampled mode (scale %d, windows %d:%d detail:ff):@." sset.scale
    sampling.Ssp_sim.Smt.detail_window sampling.Ssp_sim.Smt.ff_window;
  let rows =
    List.concat_map
      (fun (pn, pipeline, core) ->
        let cfg = config_for sset pipeline in
        let run ?sampling p =
          match core with
          | `Inorder -> Ssp_sim.Inorder.run ?sampling cfg p
          | `Ooo -> Ssp_sim.Ooo.run ?sampling cfg p
        in
        List.map
          (fun (w : Ssp_workloads.Workload.t) ->
            let prog = Ssp_workloads.Workload.program w ~scale:sset.scale in
            let measure () =
              let full, full_s = time (fun () -> run prog) in
              let samp, samp_s = time (fun () -> run ~sampling prog) in
              (full_s /. Float.max 1e-9 samp_s, full_s, samp_s, full, samp)
            in
            let m1 = measure () and m2 = measure () and m3 = measure () in
            let speedup, full_s, samp_s, full, samp =
              match
                List.sort
                  (fun (a, _, _, _, _) (b, _, _, _, _) -> compare a b)
                  [ m1; m2; m3 ]
              with
              | [ _; m; _ ] -> m
              | _ -> assert false
            in
            let ipc_err =
              (Ssp_sim.Stats.ipc samp -. Ssp_sim.Stats.ipc full)
              /. Ssp_sim.Stats.ipc full
            in
            Format.fprintf ppf
              "  %-8s %-10s full %6.2fs  sampled %5.2fs  %5.1fx  ipc err \
               %+5.2f%%@."
              pn w.Ssp_workloads.Workload.name full_s samp_s speedup
              (100. *. ipc_err);
            (pn, w.Ssp_workloads.Workload.name, speedup, ipc_err))
          Ssp_workloads.Suite.all)
      [
        ("inorder", Ssp_machine.Config.In_order, `Inorder);
        ("ooo", Ssp_machine.Config.Out_of_order, `Ooo);
      ]
  in
  let geomean xs =
    exp (List.fold_left (fun a x -> a +. log x) 0. xs
         /. float_of_int (List.length xs))
  in
  let speedups = List.map (fun (_, _, s, _) -> s) rows in
  let worst_err =
    List.fold_left (fun a (_, _, _, e) -> Float.max a (Float.abs e)) 0. rows
  in
  Format.fprintf ppf
    "  sampled speedup: %.1fx geomean, %.1fx min;  worst |ipc err| %.2f%%@."
    (geomean speedups)
    (List.fold_left Float.min infinity speedups)
    (100. *. worst_err);
  match json with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    Printf.fprintf oc
      "{\"section\":\"simspeed\",\"full_detail\":{\"inorder_mcps\":%.4f,\
       \"ooo_mcps\":%.4f%s},\"alloc_words_per_cycle\":{\"inorder\":%.4f,\
       \"ooo\":%.4f},\"sampled\":[%s]}\n"
      io oo
      (match base with
      | Some (bio, boo) ->
        Printf.sprintf
          ",\"baseline_inorder_mcps\":%.4f,\"baseline_ooo_mcps\":%.4f,\
           \"ratio_inorder\":%.4f,\"ratio_ooo\":%.4f"
          bio boo (ratio io bio) (ratio oo boo)
      | None -> "")
      aw_io aw_oo
      (String.concat ","
         (List.map
            (fun (pn, wn, s, e) ->
              Printf.sprintf
                "{\"core\":\"%s\",\"workload\":\"%s\",\"speedup\":%.4f,\
                 \"ipc_err\":%.6f}"
                pn wn s e)
            rows));
    close_out oc;
    Format.fprintf ppf "json written to %s@." path

let simspeed_update ~baseline_path () =
  let setting = Ssp_harness.Experiment.quick in
  let io = simspeed_point ~setting ~core:`Inorder in
  let oo = simspeed_point ~setting ~core:`Ooo in
  let oc = open_out baseline_path in
  Printf.fprintf oc
    "{\"setting\":\"quick\",\"inorder_mcps\":%.4f,\"ooo_mcps\":%.4f}\n" io oo;
  close_out oc;
  Format.fprintf ppf "inorder %.2f Mcyc/s, ooo %.2f Mcyc/s@." io oo;
  Format.fprintf ppf "simspeed baseline written to %s@." baseline_path

(* ---- telemetry overhead (BENCH_7) ---- *)

(* The serving plane leaves telemetry on in production (spans, counters,
   and the log-bucketed latency histograms), so its overhead on the
   compute path is a first-class number: the same
   compile -> profile -> adapt -> simulate chain for one workload, with
   instrumentation off and then on. *)
let telemetry_phase ~setting () =
  let open Ssp_harness.Experiment in
  let cfg = config_for setting Ssp_machine.Config.In_order in
  let w = Ssp_workloads.Suite.find "mcf" in
  let prog = Ssp_workloads.Workload.program w ~scale:setting.scale in
  let _, s =
    time (fun () ->
        let profile = Ssp_profiling.Collect.collect ~config:cfg prog in
        let r = Ssp.Adapt.run ~config:cfg prog profile in
        Ssp_sim.Inorder.run cfg r.Ssp.Adapt.prog)
  in
  s

let telemetry_overhead () =
  let module T = Ssp_telemetry.Telemetry in
  let setting = Ssp_harness.Experiment.quick in
  let was = !T.enabled in
  T.set_enabled false;
  let off_s = telemetry_phase ~setting () in
  T.set_enabled true;
  T.reset ();
  let on_s = telemetry_phase ~setting () in
  T.reset ();
  T.set_enabled was;
  (off_s, on_s)

let telemetry_bench ~json () =
  let off_s, on_s = telemetry_overhead () in
  let overhead = on_s /. Float.max 1e-9 off_s in
  Format.fprintf ppf "%-36s %9.3fs@." "pipeline+sim (mcf), telemetry off"
    off_s;
  Format.fprintf ppf "%-36s %9.3fs@." "pipeline+sim (mcf), telemetry on" on_s;
  Format.fprintf ppf "%-36s %8.2fx@." "overhead" overhead;
  match json with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    Printf.fprintf oc
      "{\"section\":\"telemetry\",\"off_s\":%.6f,\"on_s\":%.6f,\"overhead\":%.4f}\n"
      off_s on_s overhead;
    close_out oc;
    Format.fprintf ppf "json written to %s@." path

(* ---- --check-perf: jobs=1 wall-clock regression gate ---- *)

let check_perf ~update ~baseline_path () =
  let setting = Ssp_harness.Experiment.quick in
  (* Median of 3 timed runs after one discarded warmup run: the warmup
     pages in code and warms the allocator, the median shrugs off a
     one-off scheduler hiccup — the gate flakes far less than a single
     sample would. *)
  let pipeline_s, sim_s =
    ignore (scaling_phases ~setting ~jobs:1);
    let runs =
      List.init 3 (fun _ ->
          let _, _, p, s = scaling_phases ~setting ~jobs:1 in
          (p, s))
    in
    let med f = List.nth (List.sort compare (List.map f runs)) 1 in
    (med fst, med snd)
  in
  Format.fprintf ppf
    "jobs=1 wall clock (quick, median of 3): pipeline %.2fs, sim %.2fs@."
    pipeline_s sim_s;
  if update then begin
    let oc = open_out baseline_path in
    Printf.fprintf oc
      "{\"setting\":\"quick\",\"pipeline_s\":%.4f,\"sim_s\":%.4f}\n"
      pipeline_s sim_s;
    close_out oc;
    Format.fprintf ppf "baseline written to %s@." baseline_path
  end
  else begin
    match read_file baseline_path with
    | exception Sys_error msg ->
      Format.fprintf ppf
        "no baseline (%s); run with --update-baseline to record one@." msg;
      exit 1
    | s ->
      let check phase measured =
        match json_float s phase with
        | None ->
          Format.fprintf ppf "baseline %s: missing key %s@." baseline_path
            phase;
          true
        | Some base ->
          (* 25% relative budget plus a small absolute grace so sub-second
             phases don't flake on timer noise. *)
          let limit = (base *. 1.25) +. 0.5 in
          let bad = measured > limit in
          Format.fprintf ppf "%-12s %.2fs vs baseline %.2fs (limit %.2fs)%s@."
            phase measured base limit
            (if bad then "  REGRESSED" else "");
          bad
      in
      let bad1 = check "pipeline_s" pipeline_s in
      let bad2 = check "sim_s" sim_s in
      (* Telemetry overhead is gated relative to the same run (no
         baseline key needed): instrumentation must stay cheap enough
         to leave on in production. *)
      let off_s, on_s = telemetry_overhead () in
      let limit = (off_s *. 1.5) +. 0.25 in
      let bad3 = on_s > limit in
      Format.fprintf ppf
        "%-12s on %.2fs vs off %.2fs (limit %.2fs)%s@." "telemetry" on_s
        off_s limit
        (if bad3 then "  REGRESSED" else "");
      if bad1 || bad2 || bad3 then begin
        Format.fprintf ppf
          "@.FAIL: wall-clock regression over 25%% against %s@." baseline_path;
        exit 1
      end
      else Format.fprintf ppf "@.perf check OK (within 25%% of baseline)@."
  end

(* ---- Bechamel micro-benchmarks of the tool's algorithms ---- *)

let micro () =
  let open Bechamel in
  let mcf_prog = Ssp_workloads.(Workload.program (Suite.find "mcf") ~scale:2) in
  let profile = Ssp_profiling.Collect.collect mcf_prog in
  let regions = Ssp_analysis.Regions.compute mcf_prog in
  let callgraph = Ssp_analysis.Callgraph.compute mcf_prog in
  let delinquent = Ssp.Delinquent.identify mcf_prog profile in
  let load = List.hd delinquent.Ssp.Delinquent.loads in
  let region = Ssp_analysis.Regions.innermost_at regions load.Ssp.Delinquent.iref in
  let slice =
    match Ssp.Slicer.slice_region regions profile ~region load with
    | Some s -> s
    | None -> failwith "no slice"
  in
  let cfg = Ssp_machine.Config.in_order in
  let small_cfg = Ssp_machine.Config.scale_caches cfg 64 in
  let src = (Ssp_workloads.Suite.find "mcf").Ssp_workloads.Workload.source 1 in
  let tiny = Ssp_workloads.(Workload.program (Suite.find "mcf") ~scale:1) in
  let rng = Random.State.make [| 42 |] in
  let random_graph =
    let n = 256 in
    Ssp_analysis.Digraph.make ~n
      (List.init (n * 4) (fun _ ->
           (Random.State.int rng n, Random.State.int rng n)))
  in
  let tests =
    [
      Test.make ~name:"frontend: compile mcf"
        (Staged.stage (fun () -> Ssp_minic.Frontend.compile src));
      Test.make ~name:"analysis: regions+depgraph"
        (Staged.stage (fun () ->
             let r = Ssp_analysis.Regions.compute mcf_prog in
             Ssp_analysis.Regions.depgraph_of r "primal_bea_mpp"));
      Test.make ~name:"analysis: tarjan scc 256n/1024e"
        (Staged.stage (fun () -> Ssp_analysis.Digraph.tarjan_scc random_graph));
      Test.make ~name:"tool: slice delinquent load"
        (Staged.stage (fun () ->
             Ssp.Slicer.slice_region regions profile ~region load));
      Test.make ~name:"tool: schedule slice"
        (Staged.stage (fun () ->
             Ssp.Schedule.build regions profile cfg ~trips:1000 slice));
      Test.make ~name:"tool: full adaptation"
        (Staged.stage (fun () ->
             Ssp.Select.choose regions callgraph profile cfg load));
      Test.make ~name:"sim: functional (mcf scale 1)"
        (Staged.stage (fun () -> Ssp_sim.Funcsim.run tiny));
      Test.make ~name:"sim: in-order cycle (mcf scale 1)"
        (Staged.stage (fun () -> Ssp_sim.Inorder.run small_cfg tiny));
      Test.make ~name:"sim: ooo cycle (mcf scale 1)"
        (Staged.stage (fun () ->
             Ssp_sim.Ooo.run
               (Ssp_machine.Config.scale_caches
                  Ssp_machine.Config.out_of_order 64)
               tiny));
    ]
  in
  let benchmark test =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg_b =
      Benchmark.cfg ~limit:200 ~quota:(Time.second 0.8) ~kde:(Some 10) ()
    in
    let raw = Benchmark.all cfg_b instances test in
    Analyze.all ols Toolkit.Instance.monotonic_clock raw
  in
  section "Micro-benchmarks (Bechamel, monotonic clock)";
  List.iter
    (fun test ->
      let results = benchmark test in
      Hashtbl.iter
        (fun name ols ->
          match Bechamel.Analyze.OLS.estimates ols with
          | Some [ est ] ->
            let pretty =
              if est > 1e9 then Printf.sprintf "%8.2f s " (est /. 1e9)
              else if est > 1e6 then Printf.sprintf "%8.2f ms" (est /. 1e6)
              else if est > 1e3 then Printf.sprintf "%8.2f us" (est /. 1e3)
              else Printf.sprintf "%8.0f ns" est
            in
            Format.fprintf ppf "%-40s %s/run@." name pretty
          | _ -> Format.fprintf ppf "%-40s (no estimate)@." name)
        results)
    tests

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let quick = List.mem "--quick" args in
  let rec split_opt name = function
    | a :: path :: rest when a = name -> (Some path, rest)
    | a :: rest ->
      let t, others = split_opt name rest in
      (t, a :: others)
    | [] -> (None, [])
  in
  let trace, args = split_opt "--trace" args in
  let json, args = split_opt "--json" args in
  let jobs_s, args = split_opt "--jobs" args in
  let baseline, args = split_opt "--baseline" args in
  let jobs =
    match jobs_s with
    | None -> 1
    | Some s -> (
      match int_of_string_opt s with
      | Some n when n >= 1 -> n
      | _ ->
        prerr_endline "bench: --jobs expects a positive integer";
        exit 2)
  in
  let baseline_path =
    Option.value baseline ~default:"bench/perf_baseline.json"
  in
  (match trace with
  | Some _ -> Ssp_telemetry.Telemetry.set_enabled true
  | None -> ());
  let wanted =
    List.filter
      (fun a ->
        a <> "--quick" && a <> "--check-perf" && a <> "--update-baseline"
        && a <> "--update-simspeed")
      args
  in
  if List.mem "--update-simspeed" args then begin
    simspeed_update ~baseline_path:"bench/simspeed_baseline.json" ();
    exit 0
  end;
  if List.mem "--check-perf" args || List.mem "--update-baseline" args then begin
    check_perf
      ~update:(List.mem "--update-baseline" args)
      ~baseline_path ();
    exit 0
  end;
  let setting =
    if quick then Ssp_harness.Experiment.quick
    else Ssp_harness.Experiment.reference
  in
  let run name f =
    if wanted = [] || List.mem name wanted then begin
      section name;
      wall f
    end
  in
  Format.fprintf ppf "SSP post-pass reproduction — %s setting (scale %d, caches /%d)@."
    setting.Ssp_harness.Experiment.label setting.Ssp_harness.Experiment.scale
    setting.Ssp_harness.Experiment.cache_divisor;
  if jobs > 1 then
    Format.fprintf ppf "parallel engine: %d jobs@." jobs;
  (* With a pool available, fill the per-(workload, setting) memo up front
     so the figure/table sections below render from cache hits. *)
  let memo_sections = [ "table2"; "fig2"; "fig8"; "fig9"; "fig10" ] in
  if
    jobs > 1
    && (wanted = [] || List.exists (fun s -> List.mem s memo_sections) wanted)
  then
    Ssp_harness.Experiment.prime ~setting ~jobs Ssp_workloads.Suite.all;
  run "table1" (fun () -> Ssp_harness.Figures.table1 ppf ());
  run "table2" (fun () -> Ssp_harness.Figures.table2 ~setting ppf ());
  run "fig2" (fun () -> Ssp_harness.Figures.fig2 ~setting ppf ());
  run "fig8" (fun () -> Ssp_harness.Figures.fig8 ~setting ppf ());
  run "fig9" (fun () -> Ssp_harness.Figures.fig9 ~setting ppf ());
  run "fig10" (fun () -> Ssp_harness.Figures.fig10 ~setting ppf ());
  run "hand" (fun () -> Ssp_harness.Hand_vs_auto.print ~setting ppf ());
  run "ablate" (fun () -> Ssp_harness.Ablation.print ~setting ~jobs ppf ());
  run "perf" (perf ~setting ~jobs ~json);
  (* The scaling comparison re-runs the suite twice; it only runs when
     asked for explicitly. *)
  if List.mem "scaling" wanted then begin
    section "scaling";
    wall (scaling ~setting ~jobs ~json)
  end;
  (* The serving bench hosts a daemon in-process; like scaling, it only
     runs when asked for explicitly. *)
  if List.mem "serving" wanted then begin
    section "serving";
    wall (serving ~json)
  end;
  (* Same deal for the cluster bench: 4 in-process daemons is not free. *)
  if List.mem "cluster" wanted then begin
    section "cluster";
    wall (cluster ~json)
  end;
  (* Telemetry-overhead bench (BENCH_7): explicit-only, it runs the
     compute chain twice. *)
  if List.mem "telemetry" wanted then begin
    section "telemetry";
    wall (telemetry_bench ~json)
  end;
  (* Simulator-throughput bench (BENCH_8): explicit-only, it runs the
     whole suite full-detail and sampled on both cores. *)
  if List.mem "simspeed" wanted then begin
    section "simspeed";
    wall (simspeed_bench ~json)
  end;
  (* Closed-loop feedback bench (BENCH_9): explicit-only, it hosts a
     daemon and runs tuning loops to their fixed points. *)
  if List.mem "feedback" wanted then begin
    section "feedback";
    wall (feedback_bench ~json)
  end;
  run "micro" micro;
  (match trace with
  | Some path ->
    Ssp_telemetry.Telemetry.write_json path (Ssp_telemetry.Telemetry.report ());
    Format.fprintf ppf "telemetry report written to %s@." path
  | None -> ());
  Format.fprintf ppf "@."
