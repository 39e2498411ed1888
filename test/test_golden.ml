(* Golden identity: every observable result of the pipeline, pinned as
   digests recorded once. For the seven suite programs and three generated
   ones at [Suite.test_scale] this covers

   - the functional simulator's outputs and instruction counts: the
     original binary, and the adapted one with speculative threads
     running;
   - the profile (its canonical [Store] encoding);
   - the adapted binaries for both pipelines ([Asm.to_string]);
   - both cycle cores, full detail and sampled, baseline and adapted:
     cycles and the whole [Stats.pp] report;
   - for the seven suite programs, both cores running the adapted binary
     in full detail with [Attrib] attached and telemetry on: the
     attribution summary, the [sim.*] counters and the per-interval
     [sim.*.interval_*] series.

   The digests are the reference semantics: a refactoring of the
   interpreter, the profiler or the cores must leave every line unchanged.
   A deliberate behaviour change re-records the table and says why. *)

module Suite = Ssp_workloads.Suite
module Workload = Ssp_workloads.Workload
module Config = Ssp_machine.Config
module Attrib = Ssp_sim.Attrib
module T = Ssp_telemetry.Telemetry

let programs =
  [
    "em3d"; "health"; "mst"; "treeadd.df"; "treeadd.bf"; "mcf"; "vpr";
    "gen:1"; "gen:2"; "gen:3";
  ]

let md5 s = Digest.to_hex (Digest.string s)

let outputs_md5 outs = md5 (String.concat "," (List.map Int64.to_string outs))

let stats_line (s : Ssp_sim.Stats.t) =
  Printf.sprintf "%d %s" s.Ssp_sim.Stats.cycles
    (md5 (Format.asprintf "%a" Ssp_sim.Stats.pp s))

(* Floats in hex ([%h]) so a digest pins them to the last bit. *)
let attrib_text (s : Attrib.summary) =
  let b = Buffer.create 1024 in
  let hist (h : T.hist_summary) =
    Printf.bprintf b " %d %h %h %h %s" h.T.hs_n h.T.hs_sum h.T.hs_min
      h.T.hs_max
      (String.concat "," (Array.to_list (Array.map string_of_int h.T.hs_counts)))
  in
  List.iter
    (fun (l : Attrib.load_summary) ->
      Printf.bprintf b "load %s %d %d %d %d %d %d %d %d %d %h %h %h %h %h"
        (Ssp_ir.Iref.to_string l.ls_load)
        l.ls_issued l.ls_useful l.ls_late l.ls_early_evicted l.ls_redundant
        l.ls_dropped l.ls_unused l.ls_demand_accesses l.ls_demand_hits
        l.ls_coverage l.ls_accuracy l.ls_timeliness l.ls_mean_lead
        l.ls_mean_late_wait;
      hist l.ls_lead_hist;
      Buffer.add_char b '\n')
    s.Attrib.loads;
  List.iter
    (fun (x : Attrib.site_summary) ->
      Printf.bprintf b "site %s %d %d\n"
        (Ssp_ir.Iref.to_string x.ss_site)
        x.ss_spawns x.ss_denied)
    s.Attrib.sites;
  let t = s.Attrib.threads in
  Printf.bprintf b "threads %d %d %d %d %h %d\n" t.th_spawns t.th_denied
    t.th_ended t.th_watchdog_kills t.th_mean_lifetime t.th_max_lifetime;
  Buffer.contents b

(* Run [sim] with telemetry on from a clean slate; returns the digests of
   the attribution summary, the [sim.*] counters and the [sim.*]
   interval series. Telemetry is left off and empty, as the other suites
   in this binary expect. *)
let attributed_digests sim map =
  T.reset ();
  T.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      T.set_enabled false;
      T.reset ())
    (fun () ->
      let a = Attrib.create ~prefetch_map:map () in
      ignore (sim a);
      let r = T.report () in
      let sim_named n = String.starts_with ~prefix:"sim." n in
      let counters =
        List.filter_map
          (fun (n, v) ->
            if sim_named n then Some (Printf.sprintf "%s=%d" n v) else None)
          r.T.r_counters
      in
      let series =
        List.filter_map
          (fun (n, pts) ->
            if sim_named n then
              Some
                (n ^ ":"
                ^ String.concat ";"
                    (List.map (fun (x, y) -> Printf.sprintf "%h,%h" x y) pts))
            else None)
          r.T.r_series
      in
      ( md5 (attrib_text (Attrib.summary a)),
        md5 (String.concat "\n" counters),
        md5 (String.concat "\n" series) ))

(* One "key value" line per pinned result of a program. *)
let lines name =
  let prog = Workload.program (Suite.find name) ~scale:Suite.test_scale in
  let io = Config.in_order and ooo = Config.out_of_order in
  let line key v = Printf.sprintf "%s %s %s" name key v in
  let funcsim ?spawning p =
    let r = Ssp_sim.Funcsim.run ?spawning p in
    Printf.sprintf "%s %d %d %d" (outputs_md5 r.Ssp_sim.Funcsim.outputs)
      r.Ssp_sim.Funcsim.instrs r.Ssp_sim.Funcsim.spec_instrs
      r.Ssp_sim.Funcsim.spawns
  in
  let profile = Ssp_profiling.Collect.collect ~config:io prog in
  let adapted cfg = Ssp.Adapt.run ~config:cfg prog profile in
  let io_res = adapted io and ooo_res = adapted ooo in
  let io_bin = io_res.Ssp.Adapt.prog and ooo_bin = ooo_res.Ssp.Adapt.prog in
  let sims cfg tag (res : Ssp.Adapt.result) =
    let bin = res.Ssp.Adapt.prog in
    let sim ?attrib ?sampling p =
      match cfg.Config.pipeline with
      | Config.In_order -> Ssp_sim.Inorder.run ?attrib ?sampling cfg p
      | Config.Out_of_order -> Ssp_sim.Ooo.run ?attrib ?sampling cfg p
    in
    let sampling = Ssp_sim.Smt.default_sampling in
    [
      line (tag ^ ".base.full") (stats_line (sim prog));
      line (tag ^ ".base.sampled") (stats_line (sim ~sampling prog));
      line (tag ^ ".adapted.full") (stats_line (sim bin));
      line (tag ^ ".adapted.sampled") (stats_line (sim ~sampling bin));
    ]
    @
    if String.starts_with ~prefix:"gen:" name then []
    else
      let a, c, s =
        attributed_digests (fun attrib -> sim ~attrib bin)
          res.Ssp.Adapt.prefetch_map
      in
      [
        line (tag ^ ".adapted.attrib") a;
        line (tag ^ ".adapted.counters") c;
        line (tag ^ ".adapted.series") s;
      ]
  in
  [
    line "funcsim" (funcsim prog);
    line "funcsim.adapted.spawning" (funcsim ~spawning:true io_bin);
    line "profile" (md5 (Ssp_store.Store.encode_profile profile));
    line "asm.io" (md5 (Ssp_ir.Asm.to_string io_bin));
    line "asm.ooo" (md5 (Ssp_ir.Asm.to_string ooo_bin));
  ]
  @ sims io "io" io_res
  @ sims ooo "ooo" ooo_res

(* Recorded once; see the header before changing a line. *)
let expected =
  [
    "em3d funcsim a30eeb250b0a13d079bc15032a7915d2 1242449 0 0";
    "em3d funcsim.adapted.spawning a30eeb250b0a13d079bc15032a7915d2 1333037 76379 18647";
    "em3d profile 51ba13cc58083425731f7e45a7bbf941";
    "em3d asm.io 4aab030c75f620d28fcb0e6c285a397c";
    "em3d asm.ooo 4aab030c75f620d28fcb0e6c285a397c";
    "em3d io.base.full 2253494 99b54ce5cb39a88e7e7d73f891bef24f";
    "em3d io.base.sampled 2266310 ef6e555e4360e9a0a640b4bc5726675f";
    "em3d io.adapted.full 2377111 d6c647c50bf8da39be476169298de1c1";
    "em3d io.adapted.sampled 2347913 70f7db669527034f8d15f36ad7d599ab";
    "em3d io.adapted.attrib afda756701709f97dd094823a6f5cbeb";
    "em3d io.adapted.counters 9311a9e112ad151d7204446f15f3439a";
    "em3d io.adapted.series 4578c1fe70a646845e15c5ba44d8d4c8";
    "em3d ooo.base.full 617126 890500160ec0cb172c628f1ed42d5482";
    "em3d ooo.base.sampled 568744 dfd96b13762a5495329c15b61d36d870";
    "em3d ooo.adapted.full 746992 12a167d01af585fe843de1503a7258fc";
    "em3d ooo.adapted.sampled 683243 65c061a9d7f0519e6444d323ff1b9d38";
    "em3d ooo.adapted.attrib b6000b371f72999380b79749e46dbf11";
    "em3d ooo.adapted.counters 9a8980d578717a8906c5283745cc9642";
    "em3d ooo.adapted.series 7191735c21eae82e7ddc0f78bd77cac8";
    "health funcsim e1e1c686d23df5a3bfd188f4b3935566 257066 0 0";
    "health funcsim.adapted.spawning e1e1c686d23df5a3bfd188f4b3935566 285168 79433 6321";
    "health profile 66c9693d5f1fd4d67d75bcee1e5a1141";
    "health asm.io 349c78fff8962f36b9a43a33e2a445f1";
    "health asm.ooo 349c78fff8962f36b9a43a33e2a445f1";
    "health io.base.full 765093 2d907676367d66a43665417a26bcc26e";
    "health io.base.sampled 760632 dc076a12b12aa24e9edf4aee1c826e70";
    "health io.adapted.full 768420 ddaa78f90721ce0dfc2ead36ca0f9dda";
    "health io.adapted.sampled 756556 58b522597dc2ceb72198bf84a93f1d0d";
    "health io.adapted.attrib 2cbfb26c3a8086d75ca0851abb8bbca0";
    "health io.adapted.counters e6f75f3d8e86c83570f4f7aa923ea50f";
    "health io.adapted.series f97a7fed1b1289b90c277a22d8e60a7c";
    "health ooo.base.full 212236 22f9aa6898235f820b5f364f0577ebea";
    "health ooo.base.sampled 217459 249fe1cbacfa0e6d7302ac4e76c603db";
    "health ooo.adapted.full 247987 87bb82089eae13ab8c62b8096da0ee4c";
    "health ooo.adapted.sampled 235489 1245042f983eee8b14c7d96d30bf9156";
    "health ooo.adapted.attrib 0e16cf4acf9d40ddaced9ae60ffb4eb6";
    "health ooo.adapted.counters 1fe1d317f2bd25caba0b8fe53c932e2c";
    "health ooo.adapted.series 8fe240866d29933218b71d61a94c5e34";
    "mst funcsim 24bf0c9b9809c8d8fe259a0a1ac4d9eb 687780 0 0";
    "mst funcsim.adapted.spawning 24bf0c9b9809c8d8fe259a0a1ac4d9eb 721858 67343 7833";
    "mst profile 9104e7d3a0510d04903aabe2752e6303";
    "mst asm.io 66ac4810bf62d16d4f33c85e55011600";
    "mst asm.ooo 66ac4810bf62d16d4f33c85e55011600";
    "mst io.base.full 1737151 7e7f2b3a0c932d7955002c1bf18e880b";
    "mst io.base.sampled 1776630 0d3479e462a30d8b384990176a237f38";
    "mst io.adapted.full 1806685 bdbe8b7b4e58091ca7f609ce8b86422f";
    "mst io.adapted.sampled 1810960 75bda08e1fcc6bc1503e803901869e4b";
    "mst io.adapted.attrib edc35f12d292af43175c255ac7133a48";
    "mst io.adapted.counters 1b3064762e468ff06e9baa8c5dbd06de";
    "mst io.adapted.series 33ccb3347ef6ac462b727bb6e167d237";
    "mst ooo.base.full 693009 23cafef264603328aab159e5e2254fc8";
    "mst ooo.base.sampled 692527 441f8fadb250cbf2a150041a8f23b7ce";
    "mst ooo.adapted.full 788076 49dea3798ca82dbac22f1dafffbbba87";
    "mst ooo.adapted.sampled 773939 944f3a1d7e14839c3e643da35fd80546";
    "mst ooo.adapted.attrib d8777e6c49f70be55c35b9fd143c6429";
    "mst ooo.adapted.counters a9545fbc411a50c2f06ba0e6a2b2b0eb";
    "mst ooo.adapted.series 85d57fd5225b824c01a2495d76ee09b3";
    "treeadd.df funcsim 2704910c10c56a7b11432fb3c698f10c 1465287 0 0";
    "treeadd.df funcsim.adapted.spawning 2704910c10c56a7b11432fb3c698f10c 1738909 248442 59055";
    "treeadd.df profile b076dad500900a15a0f53b7451f330ab";
    "treeadd.df asm.io ab2685fd22ebc90c9d822b324839bbbc";
    "treeadd.df asm.ooo a84d11c7751f96e163330a6f74a5c2a2";
    "treeadd.df io.base.full 4904711 50209d7b78c3d4cecab489b6b3fe2026";
    "treeadd.df io.base.sampled 4887546 f0ef8b1606ae68fbcfe56fbc4448b0bc";
    "treeadd.df io.adapted.full 5161497 6deebf7c13aebc1090994dc350d8193e";
    "treeadd.df io.adapted.sampled 5021947 223a191aac4e1d5e6c7466b86a96bd05";
    "treeadd.df io.adapted.attrib 7975b6d7b2e9c1f71e56590582b73397";
    "treeadd.df io.adapted.counters e7a116e7b59e9ede52bb3a12e0a0475d";
    "treeadd.df io.adapted.series a561d2fef3a229fcbba8584089500e71";
    "treeadd.df ooo.base.full 1826471 684e6ac008b7c36342e6a1c4c2efea79";
    "treeadd.df ooo.base.sampled 1843926 f57ca5b9473bd1944fc3c609e57c193d";
    "treeadd.df ooo.adapted.full 1973295 ade54f439d15da9b542276379cb3a930";
    "treeadd.df ooo.adapted.sampled 1957303 a02330af2aadb12805bf7fefcc3ed037";
    "treeadd.df ooo.adapted.attrib 765a2c3567489e81f2cb439a54b82c4a";
    "treeadd.df ooo.adapted.counters 51d91b664c12f860707bacaa9f11aa5c";
    "treeadd.df ooo.adapted.series d1ce94a9b50162d26dbf1fd905f851da";
    "treeadd.bf funcsim 2704910c10c56a7b11432fb3c698f10c 1694669 0 0";
    "treeadd.bf funcsim.adapted.spawning 2704910c10c56a7b11432fb3c698f10c 1957113 1444134 69850";
    "treeadd.bf profile ecfd252ff528a25fc59a26b26481f0ad";
    "treeadd.bf asm.io 4d7499e94c63a439e0d11791d567a2f7";
    "treeadd.bf asm.ooo 4d7499e94c63a439e0d11791d567a2f7";
    "treeadd.bf io.base.full 5941264 b0d043b51aa06478aa683e2489ec335f";
    "treeadd.bf io.base.sampled 5940805 610e72c2b0531f66223b4dfa318c40ba";
    "treeadd.bf io.adapted.full 5319495 bf079a4f43f3cce55f97eb79d614ff85";
    "treeadd.bf io.adapted.sampled 5083400 6dcef1eff016177889a965b12052dc32";
    "treeadd.bf io.adapted.attrib f5578a32802bae1c59c826dbecd02035";
    "treeadd.bf io.adapted.counters 8b06ae9ad70a945d6500e9b1f8e43dc0";
    "treeadd.bf io.adapted.series 4ff4d91f71ecef1ca3a49677d748b8c6";
    "treeadd.bf ooo.base.full 1349520 190ccaa7905ecaad47fd65eb7692ae6d";
    "treeadd.bf ooo.base.sampled 1355890 12c6ff0fb74a002abbe68961a8cbd315";
    "treeadd.bf ooo.adapted.full 1563342 a2db102ebc8ea687b1dcb86616ebc1bf";
    "treeadd.bf ooo.adapted.sampled 1505774 eebc76564d643c6f178dcc2e620edf40";
    "treeadd.bf ooo.adapted.attrib 72bad586b604c7ae5751b54a69ff7645";
    "treeadd.bf ooo.adapted.counters 1d2d3873bc5f5822ae53b8edcaaae37a";
    "treeadd.bf ooo.adapted.series c8366a36e256c8fda88fd00db22caa43";
    "mcf funcsim ef50c335cca9f340bde656363ebd02fd 411605 0 0";
    "mcf funcsim.adapted.spawning ef50c335cca9f340bde656363ebd02fd 411649 42152 11";
    "mcf profile 1e101be64a759f4e7c06790ed7b7422c";
    "mcf asm.io 2a4482c14728b30e2dfa13cf4acd5332";
    "mcf asm.ooo 2a4482c14728b30e2dfa13cf4acd5332";
    "mcf io.base.full 734089 9bb9990cd5bd55fbcec8dbbc8aa3e267";
    "mcf io.base.sampled 727518 05b1cfa57fd6326c04d617753469a0bf";
    "mcf io.adapted.full 744898 da16ecc95b68226872953614ef62e764";
    "mcf io.adapted.sampled 728156 d420867b8a32da37b79ed0f73146b542";
    "mcf io.adapted.attrib b55572f8d16b96ae97f7deab7def7e44";
    "mcf io.adapted.counters 17c82ea94d5971f35002fcc7901cba88";
    "mcf io.adapted.series b17fed59bac9d8571626b2f94a5db46b";
    "mcf ooo.base.full 171467 239f4679e06ede57d45905b4c8764230";
    "mcf ooo.base.sampled 169549 b9763f9795a3d795fd4b7ad7059c8f02";
    "mcf ooo.adapted.full 179189 97e6cd17ac15e4cf4af182dec0d31ff9";
    "mcf ooo.adapted.sampled 169366 821b1fe3a9fc9bb3013b57d4d7321b34";
    "mcf ooo.adapted.attrib 7805b12ab36d689badf7e4a53ba653ac";
    "mcf ooo.adapted.counters 3274f494eaa8265cc9e4f02518f21a2c";
    "mcf ooo.adapted.series ecf6c222d7e91d4457ff08f9bc5df938";
    "vpr funcsim 42c9914571f05fe4a9881199c7d4f14d 1569033 0 0";
    "vpr funcsim.adapted.spawning 42c9914571f05fe4a9881199c7d4f14d 1673705 592553 23113";
    "vpr profile 84152f6581cc545f1a40c07aeeccc54f";
    "vpr asm.io 957f5c9f5b60686c26f1ac502ae77ac5";
    "vpr asm.ooo c74efe80c6f55c26ad8e9e6c50269d0d";
    "vpr io.base.full 3401532 ab38e4c4dd529fa7837b1f5f41d3e7cd";
    "vpr io.base.sampled 3427979 43a3d556beebf5793ac0b19cc4646d02";
    "vpr io.adapted.full 3144138 33768c36c97ed214fa8410663f123681";
    "vpr io.adapted.sampled 3099732 94ede4f7d51945e92798070abef4a4d8";
    "vpr io.adapted.attrib 83a56c69c93547e49b030b898e6f8c62";
    "vpr io.adapted.counters 9c734cc05b2aee5b50c57108d41de8b6";
    "vpr io.adapted.series c00730d472257c8cffb103e8ab1c07b7";
    "vpr ooo.base.full 1611474 2180656cf9a54705139f28dd66a81fa3";
    "vpr ooo.base.sampled 1617222 696f53752814ca25dde0651c917e3919";
    "vpr ooo.adapted.full 1486313 c834b741cfc4e405dc816118c37cf193";
    "vpr ooo.adapted.sampled 1467499 736841887f47a824c49fe7806b1c2492";
    "vpr ooo.adapted.attrib 05a8662603ddf749057ebdeefc5b7d47";
    "vpr ooo.adapted.counters 25069fd1f38d4783d98201a0c2494ba9";
    "vpr ooo.adapted.series 267abec4cdf40fb972e6b395192b04c4";
    "gen:1 funcsim b9057e3bcb046ffbede77417ce951593 385955 0 0";
    "gen:1 funcsim.adapted.spawning b9057e3bcb046ffbede77417ce951593 398995 16300 3260";
    "gen:1 profile fa16d98bf5a58e57b530588042715a60";
    "gen:1 asm.io 7af164dc4caa13a5555aa52649b80f22";
    "gen:1 asm.ooo 7af164dc4caa13a5555aa52649b80f22";
    "gen:1 io.base.full 1303836 901f1513b03ae51097efa3871c3d4991";
    "gen:1 io.base.sampled 1280270 072f91c26a001046116f5b0387afc8dd";
    "gen:1 io.adapted.full 1323428 77da924a01e288b0f4878e457386768b";
    "gen:1 io.adapted.sampled 1321281 bf956ba11e694a69e508dbdf9effeac7";
    "gen:1 ooo.base.full 421782 a2917afa130c1a988b9f38be0f99c36d";
    "gen:1 ooo.base.sampled 421746 32b6ac190c3dc024a5598b8cdff4a2f7";
    "gen:1 ooo.adapted.full 462131 c53b2cb7f1cd336e00712f1de8651786";
    "gen:1 ooo.adapted.sampled 464519 2af8656cb23b545835f5c7668ae46c79";
    "gen:2 funcsim 4d98f580b1a86bd0d910db49cd95b712 347685 0 0";
    "gen:2 funcsim.adapted.spawning 4d98f580b1a86bd0d910db49cd95b712 347694 113388 3";
    "gen:2 profile ca8f041a40de96a49b8af5a63f886cc0";
    "gen:2 asm.io f3a3a3efb6128e2e6a776b2f4b67a4eb";
    "gen:2 asm.ooo f3a3a3efb6128e2e6a776b2f4b67a4eb";
    "gen:2 io.base.full 684367 eac73ba242a354b5ee214b680d9a726a";
    "gen:2 io.base.sampled 678245 7b3c45ecf994a8eef78610fee6c83ec5";
    "gen:2 io.adapted.full 509226 8b1584d007a4400d58e4bea57dbcd564";
    "gen:2 io.adapted.sampled 679009 54e62e0e8c49bffc900260df2fb0656f";
    "gen:2 ooo.base.full 98060 3854b01c4da27e7f5d50dc27864b3af0";
    "gen:2 ooo.base.sampled 98461 ac318d30626236a46135c83ec8ff7813";
    "gen:2 ooo.adapted.full 91082 6778a4b9a065d2db11ace2dae7121eb1";
    "gen:2 ooo.adapted.sampled 98387 5a5517a1537a1faf5b6c5f04f7329f4b";
    "gen:3 funcsim 2cbca44843a864533ec05b321ae1f9d1 374241 0 0";
    "gen:3 funcsim.adapted.spawning 2cbca44843a864533ec05b321ae1f9d1 374244 10553 1";
    "gen:3 profile 6a5a351014f1ba24f08d67b441ba8dd7";
    "gen:3 asm.io 988d84ce71d2393b89af1f5255fb2368";
    "gen:3 asm.ooo 988d84ce71d2393b89af1f5255fb2368";
    "gen:3 io.base.full 482721 fe251a2eaaf957998507ff51d021d97a";
    "gen:3 io.base.sampled 475161 e369dc9c8e90127fde3ef988f413c69b";
    "gen:3 io.adapted.full 484758 9483a34344e53a6586d162a6cacec86d";
    "gen:3 io.adapted.sampled 475115 c77239cabebffa60904ddd8ce2daecff";
    "gen:3 ooo.base.full 204999 1562d7e8c27d6021431cfcec5054b5e2";
    "gen:3 ooo.base.sampled 200668 8fb3256268015ce0baa787a645b6f7e4";
    "gen:3 ooo.adapted.full 206672 31026f73ceb39fb1752f3ae05787ac42";
    "gen:3 ooo.adapted.sampled 200765 591f3f9fad8fb51dfa64c6b1179c3961";
  ]

let check () =
  let actual = List.concat_map lines programs in
  Alcotest.(check (list string)) "golden digests" expected actual

let suite = [ Alcotest.test_case "pipeline digests" `Slow check ]
