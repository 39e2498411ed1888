(* The end-to-end benchmark of the SSP tool (see README.md).

   Usage: main.exe --workload NAME --seed N --seconds S --trace 0|1
          main.exe --record-expected

   Every run measures all four phases — full-detail simulation, sampled
   simulation, cold offline adaptation and serving through the cluster —
   so every end-to-end metric exists on every workload. The workload
   picks which phases run at full size on seeded inputs: the two
   simulation phases on [suite], adaptation and serving on [service].
   The other two run a smaller companion set on seed-independent inputs.
   A round runs every phase's tasks once, interleaved; a run makes a
   fixed number of rounds (see [rounds]). The last stdout line is the
   JSON result. *)

open Perfbench
module T = Ssp_telemetry.Telemetry
module Cfg = Ssp_machine.Config
module Suite = Ssp_workloads.Suite
module Gen = Ssp_workloads.Gen
module Proto = Ssp_server.Proto
module Client = Ssp_server.Client
module Store = Ssp_store.Store

let now = Unix.gettimeofday
let say fmt = Printf.printf (fmt ^^ "\n%!")

(* ---- settings ---- *)

(* Scales are far below the paper's so that a run, its three set-ups
   and its companion sets fit the benchmark's time budget. *)
let detail_scale = 1
let sampled_scale = 2
let cache_divisor = 16
let corpus_scale = Suite.test_scale
let companion_detail = [ "health"; "mcf" ]
let companion_sampled = [ "mcf" ]
let corpus_programs = 40
let companion_corpus = 24
let warm_set = 16
let companion_warm_set = 4
let setups = 3
let default_seed = 1
let expected_path = "perfbench/expected.tsv"
let work_root = "perfbench/.work"

(* Independent seeded streams, so adding draws to one phase never
   changes another phase's inputs. *)
let stream seed id = Random.State.make [| seed; id |]
let s_order = 1
let s_corpus = 2
let s_warm = 3
let s_cold = 4
let s_mix = 5
let draw_gen st = Random.State.int st 0x3FFFFFFF
let draws seed id n = let st = stream seed id in List.init n (fun _ -> draw_gen st)

(* Generated programs come from fixed pools that the expected-output
   reference covers, so checking a run costs one Funcsim per program;
   the seed picks and orders the programs a run uses. *)
let corpus_pool = draws 0 s_corpus 400
let warm_pool = draws 0 s_warm 64
let cold_pool = draws 0 s_cold 1000

let shuffle st xs =
  List.map (fun x -> (Random.State.bits st, x)) xs |> List.sort compare |> List.map snd

let take n xs = List.filteri (fun i _ -> i < n) xs

type workload = Suite | Service

let workloads = [ ("suite", Suite); ("service", Service) ]

(* Rounds a run makes: a round repeats every simulation point, corpus
   program and serving batch once. The count depends only on the
   workload and [--seconds], so every run of a workload takes the same
   number of samples and its tails are the same order statistic. The
   counts are sized so that a run measures for about [--seconds]. *)
let rounds wl ~seconds =
  let per_30s = match wl with Suite -> 2 | Service -> 5 in
  max 1 (per_30s * seconds / 30)

(* ---- expected-output reference ---- *)

let suite_key name scale = Printf.sprintf "%s@%d" name scale
let gen_key g = Printf.sprintf "gen:%d@%d" g corpus_scale
let gen_source g = (Gen.workload ~seed:g).Ssp_workloads.Workload.source corpus_scale

(* A program's reference: the digest of its outputs, and its dynamic
   instruction count, both under Funcsim of the unadapted program. *)
type reference = { md5 : string; instrs : int }

let load_expected () =
  let tbl = Hashtbl.create 2048 in
  In_channel.with_open_text expected_path (fun ic ->
      Seq.iter
        (fun line ->
          match String.split_on_char '\t' line with
          | [ key; md5; instrs ] -> Hashtbl.replace tbl key { md5; instrs = int_of_string instrs }
          | _ -> ())
        (Seq.of_dispenser (fun () -> In_channel.input_line ic)));
  tbl

(* Funcsim runs: the reference checks, and the sample behind
   [sim.funcsim.minstr_per_s]. *)
let funcsim_instrs = ref 0
let funcsim_s = ref 0.

let funcsim prog =
  let t0 = now () in
  let r = Ssp_sim.Funcsim.run prog in
  funcsim_s := !funcsim_s +. (now () -. t0);
  funcsim_instrs := !funcsim_instrs + r.Ssp_sim.Funcsim.instrs;
  r

(* The committed reference's digest, or that of Funcsim of the
   unadapted program for a program the file does not cover. *)
let reference expected key prog =
  match Hashtbl.find_opt expected key with
  | Some r -> r.md5
  | None ->
    let r = funcsim (Lazy.force prog) in
    let md5 = Verify.digest_outputs r.Ssp_sim.Funcsim.outputs in
    Hashtbl.replace expected key { md5; instrs = r.Ssp_sim.Funcsim.instrs };
    md5

(* [n] programs, one from each of [n] equal strata of the pool ordered
   by dynamic instruction count, smallest first: every seed draws a set
   with the same spread of sizes, so the latencies of two seeds differ
   by their programs' structure, not by luck of size. *)
let strata expected st n pool =
  let cost g = match Hashtbl.find_opt expected (gen_key g) with Some r -> r.instrs | None -> 0 in
  let sorted = Array.of_list (List.sort (fun a b -> compare (cost a, a) (cost b, b)) pool) in
  let n = min n (Array.length sorted) in
  let k = Array.length sorted / n in
  List.init n (fun i -> sorted.((i * k) + Random.State.int st k))

(* The same, in a seeded order. *)
let stratified expected seed id n pool =
  let st = stream seed id in
  shuffle st (strata expected st n pool)

(* ---- spans ---- *)

let spans = Spans.create ()
let traced () = spans.Spans.enabled
let span ~name ~layer ?parent ?req f = Spans.record spans ~name ~layer ?parent ?req f

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ---- simulation phases ---- *)

type core = Io | Ooo

let core_name = function Io -> "inorder" | Ooo -> "ooo"

let config_of core =
  Cfg.scale_caches
    (match core with Io -> Cfg.in_order | Ooo -> Cfg.out_of_order)
    cache_divisor

type point = {
  p_prog : string;
  p_core : core;
  p_adapted : bool;
  p_bin : Ssp_ir.Prog.t;
  p_expected : string;
  p_map : Ssp_ir.Iref.t Ssp_ir.Iref.Map.t;
  p_profile_loads : int;  (** dynamic loads of the unadapted program *)
}

let point_name p =
  Printf.sprintf "%s %s %s" p.p_prog (core_name p.p_core)
    (if p.p_adapted then "adapted" else "base")

type sim_input = { points : point list; adapts : Ssp.Adapt.result list }

(* Compile, profile once (the cache geometry is the same on both
   cores), adapt per core. *)
let sim_setup expected ~scale names =
  let per_core =
    List.concat_map
      (fun name ->
        let prog = Ssp_workloads.Workload.program (Suite.find name) ~scale in
        let exp = reference expected (suite_key name scale) (lazy prog) in
        let profile = Ssp_profiling.Collect.collect ~config:(config_of Io) prog in
        let loads = ref 0 in
        Ssp_ir.Prog.iter_instrs prog (fun iref op ->
            match (op, Ssp_profiling.Profile.load_stats profile iref) with
            | Ssp_isa.Op.Load _, Some ls -> loads := !loads + ls.Ssp_profiling.Profile.accesses
            | _ -> ());
        List.map
          (fun core ->
            let r = Ssp.Adapt.run ~jobs:1 ~config:(config_of core) prog profile in
            let pt adapted bin =
              {
                p_prog = name;
                p_core = core;
                p_adapted = adapted;
                p_bin = bin;
                p_expected = exp;
                p_map = r.Ssp.Adapt.prefetch_map;
                p_profile_loads = !loads;
              }
            in
            ([ pt false prog; pt true r.Ssp.Adapt.prog ], r))
          [ Io; Ooo ])
      names
  in
  { points = List.concat_map fst per_core; adapts = List.map snd per_core }

type sim_run = {
  cycles : int;
  main_instrs : int;
  spec_instrs : int;
  load_accesses : int;  (** main-thread loads the per-site counters saw *)
  digest : string;
  host_s : float;
  words : float;
  attrib : Ssp_sim.Attrib.summary option;
}

let stats_digest (s : Ssp_sim.Stats.t) =
  let sites =
    Ssp_ir.Iref.Tbl.fold
      (fun k (v : Ssp_sim.Stats.load_site) acc ->
        Printf.sprintf "%s:%d,%d,%d,%d,%d,%d,%d,%d" (Ssp_ir.Iref.to_string k)
          v.accesses v.l1 v.l2 v.l2_partial v.l3 v.l3_partial v.mem
          v.mem_partial
        :: acc)
      s.Ssp_sim.Stats.loads []
    |> List.sort compare
  in
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          [
            Format.asprintf "%a" Ssp_sim.Stats.pp s;
            String.concat ";" sites;
            Verify.digest_outputs s.Ssp_sim.Stats.outputs;
          ]))

let run_point ?sampling ~req p =
  let cfg = config_of p.p_core in
  let attrib =
    (* Attribution is passive but not free: traced runs only, on the
       adapted in-order points the in-order speed-up comes from. *)
    if traced () && sampling = None && p.p_adapted && p.p_core = Io then
      Some (Ssp_sim.Attrib.create ~prefetch_map:p.p_map ())
    else None
  in
  let w0 = Gc.minor_words () in
  let s, host_s =
    timed (fun () ->
        span ~name:("sim." ^ core_name p.p_core) ~layer:"sim" ~req (fun _ ->
            match p.p_core with
            | Io -> Ssp_sim.Inorder.run ?attrib ?sampling cfg p.p_bin
            | Ooo -> Ssp_sim.Ooo.run ?attrib ?sampling cfg p.p_bin))
  in
  let words = Gc.minor_words () -. w0 in
  ( s,
    {
      cycles = s.Ssp_sim.Stats.cycles;
      main_instrs = s.Ssp_sim.Stats.main_instrs;
      spec_instrs = s.Ssp_sim.Stats.spec_instrs;
      load_accesses =
        Ssp_ir.Iref.Tbl.fold (fun _ (v : Ssp_sim.Stats.load_site) a -> a + v.accesses) s.Ssp_sim.Stats.loads 0;
      digest = stats_digest s;
      host_s;
      words;
      attrib = Option.map Ssp_sim.Attrib.summary attrib;
    } )

type sim_acc = {
  sampling : Ssp_sim.Smt.sampling option;
  order : point list;
  mutable runs : (point * sim_run) list;  (** newest first *)
  sim_speed : Speed.t;
}

(* One task per point and round. A repetition must reproduce the first
   run's statistics digest exactly. *)
let sim_tasks tally acc =
  List.mapi
    (fun i p () ->
      match run_point ?sampling:acc.sampling ~req:i p with
      | s, r ->
        (match List.assq_opt p acc.runs with
        | Some r0 when not (String.equal r0.digest r.digest) ->
          Tally.fail tally "statistics differ between rounds"
        | _ ->
          Tally.record tally
            (Verify.check_outputs ~expected:p.p_expected s.Ssp_sim.Stats.outputs));
        acc.runs <- (p, r) :: acc.runs
      | exception e -> Tally.fail tally ("simulation raised " ^ Printexc.to_string e))
    acc.order

(* Each point's first run, in point order. *)
let sim_first acc =
  let runs = List.rev acc.runs in
  List.filter_map (fun p -> Option.map (fun r -> (p, r)) (List.assq_opt p runs)) acc.order

(* Work per host second with every point weighted once, at its median
   round, corrected for the host's slowness. The rounds are spread over
   the whole run, so the figure is that of the run as a whole, not of
   its luckiest stretch. [work] counts simulated cycles (detail) or
   main-thread instructions (sampled). *)
let sim_rate acc ~work =
  let first = sim_first acc in
  let host p = Stat.median (List.filter_map (fun (q, r) -> if q == p then Some r.host_s else None) acc.runs) in
  let w = List.fold_left (fun a (_, r) -> a + work r) 0 first in
  let s = List.fold_left (fun a (p, _) -> a +. host p) 0. first in
  float_of_int w /. 1e6 /. Float.max 1e-9 (s /. Speed.slowness acc.sim_speed)

let speedups first cores =
  List.filter_map
    (fun ((p : point), (r : sim_run)) ->
      if p.p_adapted || not (List.mem p.p_core cores) then None
      else
        List.find_map
          (fun ((q : point), (a : sim_run)) ->
            if q.p_adapted && q.p_prog = p.p_prog && q.p_core = p.p_core then
              Some (float_of_int r.cycles /. float_of_int a.cycles)
            else None)
          first)
    first

(* ---- cold offline adaptation ---- *)

type adapt_sample = {
  g : int;
  compile_s : float;
  collect_s : float;
  adapt_s : float;
  profiled_instrs : int;
  collect_words : float;
  orig_instrs : int;
  new_instrs : int;
}

let latency_ms a = 1000. *. (a.compile_s +. a.collect_s +. a.adapt_s)

type corpus_acc = {
  measured : int list;  (** programs whose latencies are reported *)
  fixed : int list;  (** the seed-independent set [code_growth_pct] is taken over *)
  adapted_md5 : (int, string) Hashtbl.t;  (** first round's adapted binary *)
  mutable samples : adapt_sample list;  (** newest first *)
  pass_ms : (string, float) Hashtbl.t;  (** telemetry pass spans, summed *)
  corpus_speed : Speed.t;
}

(* One program compiled, profiled and adapted cold and offline. The
   output check runs outside the timed part: the first round runs the
   adapted binary against the reference, later rounds must reproduce the
   first round's binary byte for byte. *)
let cold_adapt tally expected acc ~req g =
  let src = gen_source g and config = Cfg.in_order in
  let prog, compile_s, profile, collect_s, words, r, adapt_s =
    span ~name:"corpus.request" ~layer:"bench" ~req (fun parent ->
        let layer_span name layer f = span ~name ~layer ~parent ~req (fun _ -> f ()) in
        let prog, compile_s =
          timed (fun () ->
              layer_span "minic.compile" "minic" (fun () -> Ssp_minic.Frontend.compile src))
        in
        let w0 = Gc.minor_words () in
        let profile, collect_s =
          timed (fun () ->
              layer_span "profiling.collect" "profiling" (fun () ->
                  Ssp_profiling.Collect.collect ~config prog))
        in
        let words = Gc.minor_words () -. w0 in
        let r, adapt_s =
          timed (fun () ->
              layer_span "core.adapt" "core" (fun () ->
                  Ssp.Adapt.run ~jobs:1 ~config prog profile))
        in
        (prog, compile_s, profile, collect_s, words, r, adapt_s))
  in
  let md5 = Digest.string (Ssp_ir.Asm.to_string r.Ssp.Adapt.prog) in
  (match Hashtbl.find_opt acc.adapted_md5 g with
  | Some d ->
    Tally.record tally
      (if String.equal d md5 then Ok () else Error "adapted binary differs between rounds")
  | None ->
    Hashtbl.replace acc.adapted_md5 g md5;
    let exp = reference expected (gen_key g) (lazy prog) in
    Tally.record tally
      (Verify.check_outputs ~expected:exp
         (span ~name:"sim.funcsim" ~layer:"sim" ~req (fun _ ->
              (funcsim r.Ssp.Adapt.prog).Ssp_sim.Funcsim.outputs))));
  {
    g;
    compile_s;
    collect_s;
    adapt_s;
    profiled_instrs = profile.Ssp_profiling.Profile.total_instrs;
    collect_words = words;
    orig_instrs = Ssp_ir.Prog.instr_count prog;
    new_instrs = Ssp_ir.Prog.instr_count r.Ssp.Adapt.prog;
  }

(* The passes' rows: the telemetry span each is read from, and whether
   by self time. Select runs slice, schedule and trigger, which have
   rows of their own. *)
let passes =
  [
    ("delinquent", "delinquent", false);
    ("slice", "slice", false);
    ("schedule", "schedule", false);
    ("trigger", "trigger", false);
    ("select", "adapt.select", true);
    ("combine", "adapt.combine", false);
    ("codegen", "adapt.codegen", false);
  ]

(* Each pass's milliseconds in the telemetry span tree, summed over it. *)
let pass_rows () =
  let rec flat acc (sp : T.span) =
    let kids = List.fold_left (fun a (k : T.span) -> a +. k.T.ms) 0. sp.T.children in
    List.fold_left flat ((sp.T.sp_name, sp.T.ms, sp.T.ms -. kids) :: acc) sp.T.children
  in
  let rows = List.fold_left flat [] (T.report ()).T.r_spans in
  List.map
    (fun (pass, span, by_self) ->
      ( pass,
        List.fold_left
          (fun a (n, ms, self) -> if n = span then a +. if by_self then self else ms else a)
          0. rows ))
    passes

(* One task per program and round. *)
let corpus_tasks tally expected acc =
  List.mapi
    (fun i g () ->
      T.reset ();
      (match cold_adapt tally expected acc ~req:i g with
      | a -> acc.samples <- a :: acc.samples
      | exception e -> Tally.fail tally ("adapt raised " ^ Printexc.to_string e));
      if T.is_enabled () then
        List.iter
          (fun (pass, ms) ->
            Hashtbl.replace acc.pass_ms pass
              (ms +. Option.value ~default:0. (Hashtbl.find_opt acc.pass_ms pass)))
          (pass_rows ()))
    (acc.measured @ List.filter (fun g -> not (List.mem g acc.measured)) acc.fixed)

(* Every latency sample of the measured programs, all rounds, corrected
   for the host's slowness. *)
let corpus_latencies acc =
  let slow = Speed.slowness acc.corpus_speed in
  List.filter_map
    (fun a -> if List.mem a.g acc.measured then Some (latency_ms a /. slow) else None)
    acc.samples

(* Static instructions codegen added over the fixed set, as a share of
   their original count: the same programs on every workload and seed,
   so the figure repeats exactly. *)
let code_growth acc =
  let o, n =
    List.fold_left
      (fun (o, n) g ->
        match List.find_opt (fun a -> a.g = g) acc.samples with
        | Some a -> (o + a.orig_instrs, n + a.new_instrs)
        | None -> (o, n))
      (0, 0) acc.fixed
  in
  100. *. float_of_int (n - o) /. float_of_int (max 1 o)

(* ---- serving ---- *)

type cluster = {
  router : Client.addr;
  router_th : Thread.t;
  shards : (int * unit Domain.t) list;
}

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let wait_for what cell =
  let rec go tries =
    match Atomic.get cell with
    | Some v -> v
    | None when tries = 0 -> failwith (what ^ " never came up")
    | None ->
      Thread.delay 0.005;
      go (tries - 1)
  in
  go 2000

(* Two shard daemons, each in its own domain with its own store, behind
   an in-process router with replication on. *)
let start_cluster dir =
  mkdir_p dir;
  let shards =
    List.init 2 (fun i ->
        let port = Atomic.make None in
        let cfg =
          {
            Ssp_server.Server.socket = None;
            tcp = Some ("127.0.0.1", 0);
            jobs = 1;
            cache =
              Some (Store.Cache.open_dir (Filename.concat dir (Printf.sprintf "shard%d" i)));
            max_frame = Proto.default_max_frame;
            timeout_s = 60.;
            max_batch = 8;
            max_queue = 256;
            retry_after_s = 0.05;
            tune = false;
          }
        in
        let d =
          Domain.spawn (fun () ->
              Ssp_server.Server.serve ~ready:(fun ~tcp_port -> Atomic.set port tcp_port) cfg)
        in
        (wait_for "shard" port, d))
  in
  let rport = Atomic.make None in
  let rcfg =
    {
      (Ssp_cluster.Router.default_config
         ~shards:(List.map (fun (p, _) -> ("127.0.0.1", p)) shards))
      with
      Ssp_cluster.Router.tcp = Some ("127.0.0.1", 0);
      replicate = true;
    }
  in
  let router_th =
    Thread.create
      (fun () ->
        Ssp_cluster.Router.serve ~ready:(fun ~tcp_port -> Atomic.set rport tcp_port) rcfg)
      ()
  in
  let rp = wait_for "router" rport in
  { router = Client.Tcp ("127.0.0.1", rp); router_th; shards }

let stop_cluster c =
  let shutdown addr =
    try ignore (Client.request_addr ~timeout_s:30. addr Proto.Shutdown) with _ -> ()
  in
  shutdown c.router;
  Thread.join c.router_th;
  List.iter
    (fun (p, d) ->
      shutdown (Client.Tcp ("127.0.0.1", p));
      Domain.join d)
    c.shards

(* The cluster runs only while it is measured or warmed: idle shard
   domains would still take part in every stop-the-world collection of
   the simulation phases. Its stores persist on disk in between. *)
let with_cluster dir f =
  let c = start_cluster dir in
  Fun.protect ~finally:(fun () -> stop_cluster c) (fun () -> f c)

let adapt_req g =
  Proto.Adapt
    { prog = Proto.Source (gen_source g); scale = corpus_scale; pipeline = "inorder"; tenant = "bench" }

type served = {
  was_warm : bool;
  sg : int;
  ms : float;
  resp : (Proto.response, string) result;
  hops : Proto.hop list;
  busy : int;
}

(* Never-requested programs, shared by the clients and by both
   measurements of a traced run. *)
type cold_source = { mutable next : int list; fallback : Random.State.t }

let next_cold c =
  match c.next with
  | g :: rest ->
    c.next <- rest;
    g
  | [] -> draw_gen c.fallback

(* The serving phase. Each batch, every client sends [per_batch]
   requests, exactly [cold_per_batch] of them cold at positions its
   seeded stream shuffles; a warm request repeats a warm program its
   stream picks. The counts are fixed, so every run takes the same
   number of warm and cold samples. *)
type serve_acc = {
  dir : string;
  warm : int array;  (** programs the stores already hold *)
  cold : cold_source;
  clients : Random.State.t array;
  per_batch : int;
  cold_per_batch : int;
  mutable served : served list;
  mutable serve_s : float;
  mutable replicated : int;
  serve_speed : Speed.t;
}

(* One batch: the cluster comes up, every warm program is requested once
   untimed (a freshly started cluster answers its first requests slowly),
   closed-loop clients each send their next request only after the
   previous reply, the cluster goes down. A warm-up reply that does not
   come back adapted is a failure, as at set-up. *)
let serve_batch tally acc =
  T.reset ();
  let mu = Mutex.create () in
  let base = List.length acc.served in
  let out, secs =
    with_cluster acc.dir @@ fun c ->
    Array.iter
      (fun g ->
        Tally.record tally
          (match Client.request_retry ~attempts:8 c.router (adapt_req g) with
          | resp -> Verify.adapted resp
          | exception e -> Error ("warm-up request raised " ^ Printexc.to_string e)))
      acc.warm;
    let t_start = now () in
    let out = ref [] in
    let client k st =
      let kinds = shuffle st (List.init acc.per_batch (fun i -> i >= acc.cold_per_batch)) in
      List.iteri
        (fun i is_warm ->
          let g =
            if is_warm then acc.warm.(Random.State.int st (Array.length acc.warm))
            else Mutex.protect mu (fun () -> next_cold acc.cold)
          in
          let req = base + (k * acc.per_batch) + i in
          let busy = ref 0 in
          let trace =
            if traced () then Some { Proto.trace_id = Printf.sprintf "pb-%d-%d" g req; span_id = 0 }
            else None
          in
          let (resp, hops), secs =
            timed (fun () ->
                span ~name:"client.request" ~layer:"client" ~req (fun _ ->
                    match
                      Client.request_retry_hops ~attempts:8 ?trace
                        ~on_wait:(fun ~reason ~delay_s:_ ->
                          if reason = "server saturated" then incr busy)
                        c.router (adapt_req g)
                    with
                    | resp, hops -> (Ok resp, hops)
                    | exception e -> (Error (Printexc.to_string e), [])))
          in
          let r = { was_warm = is_warm; sg = g; ms = 1000. *. secs; resp; hops; busy = !busy } in
          Mutex.protect mu (fun () -> out := r :: !out))
        kinds
    in
    let ths =
      Array.to_list (Array.mapi (fun k st -> Thread.create (fun () -> client k st) ()) acc.clients)
    in
    List.iter Thread.join ths;
    (!out, now () -. t_start)
  in
  acc.served <- out @ acc.served;
  acc.serve_s <- acc.serve_s +. secs;
  acc.replicated <-
    acc.replicated
    + Option.value ~default:0 (List.assoc_opt "router.replicate.ok" (T.report ()).T.r_counters)

(* Every reply checked against the reference, after the measurement; a
   reply whose bytes were already verified is not run again. *)
let check_served tally expected acc =
  (* Running each distinct served binary is the costly part; it is split
     over two domains. *)
  let distinct = Hashtbl.create 256 in
  List.iter
    (fun r ->
      match r.resp with
      | Ok (Proto.Adapted { asm; _ }) -> Hashtbl.replace distinct (Digest.string asm) asm
      | _ -> ())
    acc.served;
  let run =
    List.map (fun (key, asm) ->
        (key, match Verify.served_outputs asm with o -> Ok o | exception e -> Error e))
  in
  let jobs = List.of_seq (Hashtbl.to_seq distinct) in
  let half k = List.filteri (fun i _ -> i mod 2 = k) jobs in
  let other = Domain.spawn (fun () -> run (half 1)) in
  let outputs = Hashtbl.of_seq (List.to_seq (run (half 0) @ Domain.join other)) in
  let outputs_of_asm asm =
    match Hashtbl.find outputs (Digest.string asm) with Ok o -> o | Error e -> raise e
  in
  List.iter
    (fun r ->
      match r.resp with
      | Error e -> Tally.fail tally ("request raised " ^ e)
      | Ok resp ->
        let exp =
          reference expected (gen_key r.sg)
            (lazy (Ssp_minic.Frontend.compile (gen_source r.sg)))
        in
        Tally.record tally (Verify.check_reply ~expected:exp ~outputs_of_asm resp))
    acc.served

let adapted_replies acc =
  List.filter (fun r -> match r.resp with Ok (Proto.Adapted _) -> true | _ -> false) acc.served

(* ---- one measurement: all four phases, in rounds ---- *)

type env = {
  detail : sim_input;
  sampled : sim_input;
  store_dir : string;
  warm : int array;
  cold : cold_source;
}

let suite_names = List.map (fun (w : Ssp_workloads.Workload.t) -> w.name) Suite.all

(* Serving sizes. The primary phase: two clients, each sending
   [serve_per_batch] requests per batch, one in ten of them cold. The
   companion: one client, [companion_requests] per run, one in three of
   them cold, spread over all batches. The companion's 120 warm samples
   put its warm tail at p91.7: one client's warm latencies above p95
   are rare stalls, whose count varies from run to run far more than
   the latencies below. *)
let serve_per_batch = 50
let serve_cold_per_batch = 5
let companion_requests = 180

(* Serving batches per round. Each batch is short, so that serving, like
   the other phases, is sampled all through the run. *)
let batches wl = match wl with Suite -> 6 | Service -> 3
let cold_per_run wl ~rounds = 2 * rounds * batches wl * serve_cold_per_batch

let setup_env tally expected wl seed ~rounds ~dir =
  let names companion = if wl = Suite then suite_names else companion in
  let detail = sim_setup expected ~scale:detail_scale (names companion_detail) in
  let sampled = sim_setup expected ~scale:sampled_scale (names companion_sampled) in
  let primary = wl = Service in
  let warm =
    Array.of_list
      (if primary then stratified expected seed s_warm warm_set warm_pool
       else take companion_warm_set warm_pool)
  in
  let cold =
    let st = stream seed s_cold in
    let next =
      if not primary then cold_pool
      else
        (* Two measurements' worth (a traced run makes two), alternate
           strata each: every measurement's cold programs span all sizes. *)
        let l = strata expected st (2 * cold_per_run wl ~rounds) cold_pool in
        let half k = shuffle st (List.filteri (fun i _ -> i mod 2 = k) l) in
        half 0 @ half 1
    in
    { next; fallback = st }
  in
  (* Every warm program is adapted once through the router, so the timed
     warm requests are store reads. With two shards and replication on,
     both stores hold every warm artifact. A set-up request that does not
     come back adapted is a failure: its program's timed requests would
     not be store reads. *)
  with_cluster dir (fun c ->
      Array.iter
        (fun g ->
          Tally.record tally
            (match Client.request_retry ~attempts:8 c.router (adapt_req g) with
            | resp -> Verify.adapted resp
            | exception e -> Error ("set-up request raised " ^ Printexc.to_string e)))
        warm);
  { detail; sampled; store_dir = dir; warm; cold }

type measurement = {
  detail_r : sim_acc;
  sampled_r : sim_acc;
  corpus_r : corpus_acc;
  serve_r : serve_acc;
}

let measure tally expected env wl seed ~rounds =
  let order = stream seed s_order in
  let sim (input : sim_input) sampling =
    { sampling; order = shuffle order input.points; runs = []; sim_speed = Speed.create () }
  in
  let detail_r = sim env.detail None in
  let sampled_r = sim env.sampled (Some Ssp_sim.Smt.default_sampling) in
  let fixed = take companion_corpus corpus_pool in
  let corpus_r =
    {
      measured =
        (if wl = Service then stratified expected seed s_corpus corpus_programs corpus_pool
         else fixed);
      fixed;
      adapted_md5 = Hashtbl.create 64;
      samples = [];
      pass_ms = Hashtbl.create 8;
      corpus_speed = Speed.create ();
    }
  in
  let serve_r =
    let primary = wl = Service in
    let s = if primary then seed else 0 in
    let per_batch = if primary then serve_per_batch else companion_requests / (rounds * batches wl) in
    {
      dir = env.store_dir;
      warm = env.warm;
      cold = env.cold;
      clients = Array.init (if primary then 2 else 1) (fun i -> stream s (s_mix + (100 * i)));
      per_batch;
      cold_per_batch = (if primary then serve_cold_per_batch else per_batch / 3);
      served = [];
      serve_s = 0.;
      replicated = 0;
      serve_speed = Speed.create ();
    }
  in
  (* A round runs every phase's tasks, interleaved evenly, so each phase
     samples the whole round rather than one stretch of it. On [suite]
     the companion corpus repeats within a round, so that each of its
     programs runs at least three times a run. Every task is preceded by
     a probe of the host's speed, on its phase's account. *)
  let corpus = corpus_tasks tally expected corpus_r in
  let probed speed tasks = List.map (fun task () -> Speed.probe speed; task ()) tasks in
  let round =
    [
      probed detail_r.sim_speed (sim_tasks tally detail_r);
      probed sampled_r.sim_speed (sim_tasks tally sampled_r);
      probed corpus_r.corpus_speed
        (if wl = Service then corpus else List.concat (List.init ((rounds + 2) / rounds) (fun _ -> corpus)));
      probed serve_r.serve_speed (List.init (batches wl) (fun _ () -> serve_batch tally serve_r));
    ]
    |> List.concat_map (fun tasks ->
           let n = float_of_int (List.length tasks) in
           List.mapi (fun i t -> ((float_of_int i +. 0.5) /. n, t)) tasks)
    |> List.stable_sort (fun (a, _) (b, _) -> Float.compare a b)
    |> List.map snd
  in
  for _ = 1 to rounds do
    List.iter (fun task -> task ()) round
  done;
  say "host slowness: detail %.3f, sampled %.3f, corpus %.3f, serve %.3f"
    (Speed.slowness detail_r.sim_speed) (Speed.slowness sampled_r.sim_speed)
    (Speed.slowness corpus_r.corpus_speed) (Speed.slowness serve_r.serve_speed);
  check_served tally expected serve_r;
  { detail_r; sampled_r; corpus_r; serve_r }

(* ---- metrics ---- *)

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %d" (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> go ()
        | None -> 0.
      in
      go ())

let tail_of name xs =
  let v, pct = Stat.tail xs in
  say "%s = %.3f: p%.2f of %d samples" name v pct (List.length xs);
  v

let end_to_end ~setup_s m tally =
  let med = Stat.median in
  let served = adapted_replies m.serve_r in
  let slow = Speed.slowness m.serve_r.serve_speed in
  let lat w = List.filter_map (fun r -> if r.was_warm = w then Some (r.ms /. slow) else None) served in
  let warm = lat true and cold = lat false in
  let lats = corpus_latencies m.corpus_r in
  let first_d = sim_first m.detail_r and first_s = sim_first m.sampled_r in
  [
    ("setup_s", setup_s, "s");
    ("peak_rss_mb", peak_rss_mb (), "MB");
    ("ok_ratio", 1. -. Tally.failed_ratio tally, "ratio");
    ("sim_detail_mcyc_per_s", sim_rate m.detail_r ~work:(fun r -> r.cycles), "Mcyc/s");
    ("speedup_inorder_geomean", Stat.geomean (speedups first_d [ Io ]), "x");
    ("speedup_ooo_geomean", Stat.geomean (speedups first_d [ Ooo ]), "x");
    ("sim_sampled_minstr_per_s", sim_rate m.sampled_r ~work:(fun r -> r.main_instrs), "Minstr/s");
    ("speedup_sampled_geomean", Stat.geomean (speedups first_s [ Io; Ooo ]), "x");
    ("adapt_p50_ms", med lats, "ms");
    ("adapt_tail_ms", tail_of "adapt_tail_ms" lats, "ms");
    ("code_growth_pct", code_growth m.corpus_r, "%");
    ("serve_warm_p50_ms", med warm, "ms");
    ("serve_warm_tail_ms", tail_of "serve_warm_tail_ms" warm, "ms");
    ("serve_cold_p50_ms", med cold, "ms");
    ("serve_cold_tail_ms", tail_of "serve_cold_tail_ms" cold, "ms");
    ("serve_req_per_s", float_of_int (List.length m.serve_r.served) /. (m.serve_r.serve_s /. slow), "1/s");
  ]

(* The workload's own end-to-end figures as costs (higher = slower), one
   per full-size phase: the traced-minus-untraced difference is reported
   on their geometric mean. *)
let primary_costs wl m =
  match wl with
  | Suite ->
    [
      1. /. sim_rate m.detail_r ~work:(fun r -> r.cycles);
      1. /. sim_rate m.sampled_r ~work:(fun r -> r.main_instrs);
    ]
  | Service ->
    [
      Stat.median (corpus_latencies m.corpus_r);
      m.serve_r.serve_s /. Speed.slowness m.serve_r.serve_speed
      /. float_of_int (List.length m.serve_r.served);
    ]

(* [Smt.fast_forward] timed directly over each in-order binary, start to
   halt: the interpreter sampled mode spends most instructions in. *)
let fast_forward_rate (input : sim_input) =
  let instrs = ref 0 and secs = ref 0. in
  List.iter
    (fun p ->
      if p.p_core = Io then begin
        let m = Ssp_sim.Smt.create (config_of Io) p.p_bin in
        let env =
          {
            Ssp_sim.Exec.mem = m.Ssp_sim.Smt.mem;
            prog = p.p_bin;
            chk_free = (fun () -> false);
            spawn = (fun ~src:_ ~fn:_ ~blk:_ ~live_in:_ -> false);
            output = (fun _ -> ());
            ev_addr = 0L;
          }
        in
        let k, s =
          timed (fun () ->
              span ~name:"sim.ff" ~layer:"sim" (fun _ ->
                  Ssp_sim.Smt.fast_forward m env ~now:0 ~instrs:max_int))
        in
        secs := !secs +. s;
        instrs := !instrs + k
      end)
    input.points;
  float_of_int !instrs /. 1e6 /. Float.max 1e-9 !secs

let per_layer (env : env) m ~overhead_pct ~ff_rate =
  let fl = float_of_int in
  let fsum f xs = List.fold_left (fun a x -> a +. f x) 0. xs in
  let isum f xs = List.fold_left (fun a x -> a + f x) 0 xs in
  let per n x = x /. fl (max 1 n) in
  (* corpus *)
  let c = m.corpus_r.samples in
  let nc = List.length c in
  (* simulation *)
  let runs = m.detail_r.runs in
  let sel f = List.filter (fun ((p : point), _) -> f p) runs in
  let host rs = fsum (fun (_, r) -> r.host_s) rs in
  let cyc rs = isum (fun (_, r) -> r.cycles) rs in
  let mcyc_per_s rs = fl (cyc rs) /. 1e6 /. Float.max 1e-9 (host rs) in
  let words_per_cycle rs = per (cyc rs) (fsum (fun (_, r) -> r.words) rs) in
  let ns_per_cycle rs = per (cyc rs) (1e9 *. host rs) in
  let first = sim_first m.detail_r in
  let cycles core adapted =
    fl (cyc (List.filter (fun ((p : point), _) -> p.p_core = core && p.p_adapted = adapted) first))
  in
  let adapted_first = List.filter (fun ((p : point), _) -> p.p_adapted) first in
  let attribs = List.filter_map (fun (_, r) -> r.attrib) adapted_first in
  let loads = List.concat_map (fun (s : Ssp_sim.Attrib.summary) -> s.loads) attribs in
  let lsum f = fl (isum f loads) in
  (* Everything issued, redundant and dropped prefetches included: the
     base of Attrib's own accuracy. *)
  let issued = lsum (fun l -> l.ls_issued + l.ls_redundant + l.ls_dropped) in
  let useful = lsum (fun l -> l.ls_useful) in
  let late = lsum (fun l -> l.ls_late) in
  (* Would-be misses of the target loads: the demand misses left, plus
     the ones a useful prefetch turned into hits (Attrib's definition). *)
  let would_be = lsum (fun l -> l.ls_demand_accesses - l.ls_demand_hits + l.ls_useful) in
  let threads f = fl (isum (fun (s : Ssp_sim.Attrib.summary) -> f s.threads) attribs) in
  (* Per-site load counters of a sampled run cover its detailed windows
     only: against the profile's count of every dynamic load they give
     the share of the baseline run simulated in detail. *)
  let sampled_base = List.filter (fun ((p : point), _) -> not p.p_adapted) (sim_first m.sampled_r) in
  (* serving *)
  let served = adapted_replies m.serve_r in
  let ns = List.length served in
  let hop r stage = fsum (fun h -> if h.Proto.hop_stage = stage then h.Proto.hop_ms else 0.) r.hops in
  let mean_hop stage = per ns (fsum (fun r -> hop r stage) served) in
  let shard_stages = [ "queue"; "store.lookup"; "compute"; "serialize" ] in
  let hits =
    List.length
      (List.filter (fun r -> match r.resp with Ok (Proto.Adapted { cache = "hit"; _ }) -> true | _ -> false) served)
  in
  let busy = isum (fun r -> r.busy) m.serve_r.served in
  let adapts = env.detail.adapts in
  let count f = fl (isum f adapts) in
  let layers = Spans.self_by_layer (Spans.spans spans) in
  [
    ("minic.compile_ms", per nc (1000. *. fsum (fun a -> a.compile_s) c), "ms");
    ("profiling.collect_ms", per nc (1000. *. fsum (fun a -> a.collect_s) c), "ms");
    ( "profiling.minstr_per_s",
      fl (isum (fun a -> a.profiled_instrs) c) /. 1e6 /. Float.max 1e-9 (fsum (fun a -> a.collect_s) c),
      "Minstr/s" );
    ( "profiling.minor_words_per_instr",
      per (isum (fun a -> a.profiled_instrs) c) (fsum (fun a -> a.collect_words) c),
      "words" );
    ("core.adapt_ms", per nc (1000. *. fsum (fun a -> a.adapt_s) c), "ms");
  ]
  @ List.map
      (fun (pass, _, _) ->
        ("core.pass." ^ pass ^ "_ms", per nc (Hashtbl.find m.corpus_r.pass_ms pass), "ms"))
      passes
  @ [
      ("core.delinquent_loads", count (fun r -> List.length r.Ssp.Adapt.delinquent.Ssp.Delinquent.loads), "count");
      ("core.choices", count (fun r -> List.length r.Ssp.Adapt.choices), "count");
      ("core.degraded", count (fun r -> List.length r.Ssp.Adapt.report.Ssp.Report.diagnostics), "count");
      ("sim.inorder.mcyc_per_s", mcyc_per_s (sel (fun p -> p.p_core = Io)), "Mcyc/s");
      ("sim.ooo.mcyc_per_s", mcyc_per_s (sel (fun p -> p.p_core = Ooo)), "Mcyc/s");
      ("sim.inorder.minor_words_per_cycle", words_per_cycle (sel (fun p -> p.p_core = Io)), "words");
      ("sim.ooo.minor_words_per_cycle", words_per_cycle (sel (fun p -> p.p_core = Ooo)), "words");
      ("sim.host_ns_per_cycle.base", ns_per_cycle (sel (fun p -> not p.p_adapted)), "ns");
      ("sim.host_ns_per_cycle.adapted", ns_per_cycle (sel (fun p -> p.p_adapted)), "ns");
      ( "sim.spec_instr_ratio",
        per (isum (fun (_, r) -> r.main_instrs) adapted_first)
          (fl (isum (fun (_, r) -> r.spec_instrs) adapted_first)),
        "ratio" );
      ("sim.cycles.inorder.base", cycles Io false, "cycles");
      ("sim.cycles.inorder.adapted", cycles Io true, "cycles");
      ("sim.cycles.ooo.base", cycles Ooo false, "cycles");
      ("sim.cycles.ooo.adapted", cycles Ooo true, "cycles");
      ("sim.prefetch.issued", issued, "count");
      ("sim.prefetch.useful", useful, "count");
      ("sim.prefetch.late", late, "count");
      ("sim.prefetch.redundant", lsum (fun l -> l.ls_redundant), "count");
      ("sim.prefetch.accuracy", useful /. Float.max 1. issued, "ratio");
      ("sim.prefetch.coverage", (useful +. late) /. Float.max 1. would_be, "ratio");
      ("sim.spawns", threads (fun t -> t.th_spawns), "count");
      ("sim.spawn_denied", threads (fun t -> t.th_denied), "count");
      ("sim.ff.minstr_per_s", ff_rate, "Minstr/s");
      ( "sim.sampled.detail_share",
        per (isum (fun ((p : point), _) -> p.p_profile_loads) sampled_base)
          (fl (isum (fun (_, r) -> r.load_accesses) sampled_base)),
        "ratio" );
      ("sim.funcsim.minstr_per_s", fl !funcsim_instrs /. 1e6 /. Float.max 1e-9 !funcsim_s, "Minstr/s");
      ("store.hit_ratio", per ns (fl hits), "ratio");
      ("store.lookup_ms", mean_hop "store.lookup", "ms");
      ("server.queue_ms", mean_hop "queue", "ms");
      ("server.compute_ms", mean_hop "compute", "ms");
      ("server.serialize_ms", mean_hop "serialize", "ms");
      ("server.busy_ratio", per (busy + List.length m.serve_r.served) (fl busy), "ratio");
      ( "cluster.forward_ms",
        per ns (fsum (fun r -> hop r "forward" -. fsum (hop r) shard_stages) served),
        "ms" );
      ("cluster.replicate_count", fl m.serve_r.replicated, "count");
      ("client.uncovered_ms", per ns (fsum (fun r -> r.ms -. hop r "forward") served), "ms");
    ]
  @ List.map
      (fun layer ->
        ("layer." ^ layer ^ ".self_ms", 1000. *. Option.value ~default:0. (List.assoc_opt layer layers), "ms"))
      [ "bench"; "minic"; "profiling"; "core"; "sim"; "client" ]
  @ [ ("trace.overhead_pct", overhead_pct, "%") ]

(* ---- host stamp ---- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let commit () =
  match String.trim (read_file ".git/HEAD") with
  | exception Sys_error _ -> "none"
  | head when String.starts_with ~prefix:"ref: " head -> (
    let r = String.sub head 5 (String.length head - 5) in
    try String.trim (read_file (Filename.concat ".git" r)) with Sys_error _ -> "unknown")
  | head -> head

(* A digest of the sources the benchmark is built from: the checkout it
   runs in need not be a git repository. *)
let source_md5 () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then if f.[0] = '.' then [] else files p
           else if Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli" || f = "dune"
           then [ p ]
           else [])
  in
  List.concat_map files [ "lib"; "perfbench" ]
  |> List.map (fun p -> p ^ Digest.string (read_file p))
  |> String.concat "" |> Digest.string |> Digest.to_hex

let stamp ~wl_name ~seed ~seconds ~trace =
  Printf.sprintf
    "{\"nproc\": %d, \"ocaml\": \"%s\", \"commit\": \"%s\", \"source_md5\": \"%s\", \
     \"workload\": \"%s\", \"seed\": %d, \"seconds\": %d, \"trace\": %d}"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version (commit ()) (source_md5 ()) wl_name seed seconds trace

(* ---- output ---- *)

let print_digests m =
  let sorted rs = List.sort (fun (a, _) (b, _) -> compare (point_name a) (point_name b)) rs in
  let d = sorted (sim_first m.detail_r) and s = sorted (sim_first m.sampled_r) in
  let line phase ((p : point), r) =
    say "stats %s %s cycles=%d main=%d spec=%d md5=%s" phase (point_name p) r.cycles
      r.main_instrs r.spec_instrs r.digest
  in
  List.iter (line "detail") d;
  List.iter (line "sampled") s;
  say "stats digest of all points: %s"
    (Digest.to_hex (Digest.string (String.concat "," (List.map (fun (_, r) -> r.digest) (d @ s)))))

let json_metrics rows =
  String.concat ", "
    (List.map
       (fun (name, v, unit) -> Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name v unit)
       rows)

(* ---- expected-output recording ---- *)

(* Funcsim outputs of the unadapted programs: the suite at both scales
   and every pooled generated program. Run once; the file is
   committed. *)
let record_expected () =
  let rows = ref [] in
  let add key prog =
    let r = Ssp_sim.Funcsim.run prog in
    rows := (key, Verify.digest_outputs r.outputs, r.instrs) :: !rows
  in
  List.iter
    (fun (w : Ssp_workloads.Workload.t) ->
      List.iter
        (fun scale -> add (suite_key w.name scale) (Ssp_workloads.Workload.program w ~scale))
        [ detail_scale; sampled_scale ])
    Suite.all;
  let gens = corpus_pool @ warm_pool @ cold_pool in
  List.iter
    (fun g -> add (gen_key g) (Ssp_minic.Frontend.compile (gen_source g)))
    (List.sort_uniq compare gens);
  Out_channel.with_open_text expected_path (fun oc ->
      List.iter
        (fun (k, d, n) -> Printf.fprintf oc "%s\t%s\t%d\n" k d n)
        (List.sort_uniq compare !rows));
  say "wrote %d references to %s" (List.length !rows) expected_path

(* ---- main ---- *)

let usage () =
  prerr_endline
    "usage: main.exe --workload (suite|service) \
     --seed N --seconds S --trace 0|1\n       main.exe --record-expected";
  exit 2

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let args = List.tl (Array.to_list Sys.argv) in
  if args = [ "--record-expected" ] then (record_expected (); exit 0);
  let rec parse acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k ->
      parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let int k d =
    match List.assoc_opt k opts with
    | None -> d
    | Some v -> ( match int_of_string_opt v with Some n -> n | None -> usage ())
  in
  let wl_name = Option.value ~default:"" (List.assoc_opt "workload" opts) in
  let wl = match List.assoc_opt wl_name workloads with Some w -> w | None -> usage () in
  let seed = int "seed" default_seed and seconds = int "seconds" 10 in
  let trace = match int "trace" 0 with 0 -> false | 1 -> true | _ -> usage () in
  say "host %s" (stamp ~wl_name ~seed ~seconds ~trace:(Bool.to_int trace));
  let expected = load_expected () in
  let dir = Filename.concat work_root (string_of_int (Unix.getpid ())) in
  let cleanup () =
    rm_rf dir;
    (* Left in place while another run still uses it. *)
    try Sys.rmdir work_root with Sys_error _ -> ()
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  (* Set-up runs [setups] times and the median is reported, corrected
     for the host's slowness over probes before and after each set-up;
     the stores of all but the last are discarded. *)
  let tally = Tally.create () in
  let rounds = rounds wl ~seconds in
  let setup_speed = Speed.create () in
  let setup_times, env =
    List.fold_left
      (fun (times, prev) k ->
        Option.iter (fun (e : env) -> rm_rf e.store_dir) prev;
        Speed.probe setup_speed;
        let env, s = timed (fun () -> setup_env tally expected wl seed ~rounds ~dir:(Printf.sprintf "%s/%d" dir k)) in
        (s :: times, Some env))
      ([], None) (List.init setups Fun.id)
  in
  Speed.probe setup_speed;
  let setup_s = Stat.median setup_times /. Speed.slowness setup_speed in
  let env = Option.get env in
  let m = measure tally expected env wl seed ~rounds in
  print_digests m;
  let result =
    if not trace then end_to_end ~setup_s m tally
    else begin
      (* The traced measurement repeats the phases with the benchmark's
         spans, the program's telemetry, hop tracing and prefetch
         attribution on. *)
      spans.Spans.enabled <- true;
      T.set_enabled true;
      let mt = measure tally expected env wl seed ~rounds in
      let ff_rate = fast_forward_rate env.sampled in
      T.set_enabled false;
      let overhead =
        100. *. (Stat.geomean (List.map2 ( /. ) (primary_costs wl mt) (primary_costs wl m)) -. 1.)
      in
      say "tracing overhead on the %s phases: %+.2f%%" wl_name overhead;
      per_layer env mt ~overhead_pct:overhead ~ff_rate
    end
  in
  List.iter (fun (n, v, u) -> say "metric %-36s %14.4f %s" n v u) result;
  say "failed_ratio = %.6f (%d of %d operations)" (Tally.failed_ratio tally) tally.Tally.failed
    tally.Tally.attempted;
  List.iter (fun (r, n) -> say "failure: %s (x%d)" r n) (Tally.reasons tally);
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) result in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (tally.Tally.failed = 0 && finite)
    tally.Tally.attempted tally.Tally.failed
    (json_metrics (List.map (fun (n, v, u) -> (n, (if Float.is_finite v then v else -1.), u)) result))
