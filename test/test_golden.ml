(* Golden identity: every observable result of the pipeline, pinned as
   digests recorded once. For the seven suite programs and three generated
   ones at [Suite.test_scale] this covers

   - the functional simulator's outputs and instruction counts: the
     original binary, and the adapted one with speculative threads
     running;
   - the profile (its canonical [Store] encoding);
   - the adapted binaries for both pipelines ([Asm.to_string]);
   - both cycle cores, full detail and sampled, baseline and adapted:
     cycles and the whole [Stats.pp] report.

   The digests are the reference semantics: a refactoring of the
   interpreter, the profiler or the cores must leave every line unchanged.
   A deliberate behaviour change re-records the table and says why. *)

module Suite = Ssp_workloads.Suite
module Workload = Ssp_workloads.Workload
module Config = Ssp_machine.Config

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
  let adapted cfg = (Ssp.Adapt.run ~config:cfg prog profile).Ssp.Adapt.prog in
  let io_bin = adapted io and ooo_bin = adapted ooo in
  let sims cfg tag bin =
    let sim ?sampling p =
      match cfg.Config.pipeline with
      | Config.In_order -> Ssp_sim.Inorder.run ?sampling cfg p
      | Config.Out_of_order -> Ssp_sim.Ooo.run ?sampling cfg p
    in
    let sampling = Ssp_sim.Smt.default_sampling in
    [
      line (tag ^ ".base.full") (stats_line (sim prog));
      line (tag ^ ".base.sampled") (stats_line (sim ~sampling prog));
      line (tag ^ ".adapted.full") (stats_line (sim bin));
      line (tag ^ ".adapted.sampled") (stats_line (sim ~sampling bin));
    ]
  in
  [
    line "funcsim" (funcsim prog);
    line "funcsim.adapted.spawning" (funcsim ~spawning:true io_bin);
    line "profile" (md5 (Ssp_store.Store.encode_profile profile));
    line "asm.io" (md5 (Ssp_ir.Asm.to_string io_bin));
    line "asm.ooo" (md5 (Ssp_ir.Asm.to_string ooo_bin));
  ]
  @ sims io "io" io_bin
  @ sims ooo "ooo" ooo_bin

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
    "em3d ooo.base.full 617126 890500160ec0cb172c628f1ed42d5482";
    "em3d ooo.base.sampled 568744 383b2d30a62f5429736d67fb885e25c4";
    "em3d ooo.adapted.full 746992 12a167d01af585fe843de1503a7258fc";
    "em3d ooo.adapted.sampled 683243 e6a1571fdcd4feeeb171ae7f8a88ad61";
    "health funcsim e1e1c686d23df5a3bfd188f4b3935566 257066 0 0";
    "health funcsim.adapted.spawning e1e1c686d23df5a3bfd188f4b3935566 285168 79433 6321";
    "health profile 66c9693d5f1fd4d67d75bcee1e5a1141";
    "health asm.io 349c78fff8962f36b9a43a33e2a445f1";
    "health asm.ooo 349c78fff8962f36b9a43a33e2a445f1";
    "health io.base.full 765093 2d907676367d66a43665417a26bcc26e";
    "health io.base.sampled 760632 dc076a12b12aa24e9edf4aee1c826e70";
    "health io.adapted.full 768420 ddaa78f90721ce0dfc2ead36ca0f9dda";
    "health io.adapted.sampled 756556 58b522597dc2ceb72198bf84a93f1d0d";
    "health ooo.base.full 212236 22f9aa6898235f820b5f364f0577ebea";
    "health ooo.base.sampled 217459 4019898033fc3b265a95244c477c82d8";
    "health ooo.adapted.full 247987 87bb82089eae13ab8c62b8096da0ee4c";
    "health ooo.adapted.sampled 235489 1245042f983eee8b14c7d96d30bf9156";
    "mst funcsim 24bf0c9b9809c8d8fe259a0a1ac4d9eb 687780 0 0";
    "mst funcsim.adapted.spawning 24bf0c9b9809c8d8fe259a0a1ac4d9eb 721858 67343 7833";
    "mst profile 9104e7d3a0510d04903aabe2752e6303";
    "mst asm.io 66ac4810bf62d16d4f33c85e55011600";
    "mst asm.ooo 66ac4810bf62d16d4f33c85e55011600";
    "mst io.base.full 1737151 7e7f2b3a0c932d7955002c1bf18e880b";
    "mst io.base.sampled 1776630 0d3479e462a30d8b384990176a237f38";
    "mst io.adapted.full 1806685 bdbe8b7b4e58091ca7f609ce8b86422f";
    "mst io.adapted.sampled 1810960 75bda08e1fcc6bc1503e803901869e4b";
    "mst ooo.base.full 693009 23cafef264603328aab159e5e2254fc8";
    "mst ooo.base.sampled 692527 c6fc918b1db4defe3cf4ec5152afbcb4";
    "mst ooo.adapted.full 788076 49dea3798ca82dbac22f1dafffbbba87";
    "mst ooo.adapted.sampled 773939 944f3a1d7e14839c3e643da35fd80546";
    "treeadd.df funcsim 2704910c10c56a7b11432fb3c698f10c 1465287 0 0";
    "treeadd.df funcsim.adapted.spawning 2704910c10c56a7b11432fb3c698f10c 1738909 248442 59055";
    "treeadd.df profile b076dad500900a15a0f53b7451f330ab";
    "treeadd.df asm.io ab2685fd22ebc90c9d822b324839bbbc";
    "treeadd.df asm.ooo a84d11c7751f96e163330a6f74a5c2a2";
    "treeadd.df io.base.full 4904711 50209d7b78c3d4cecab489b6b3fe2026";
    "treeadd.df io.base.sampled 4887546 f0ef8b1606ae68fbcfe56fbc4448b0bc";
    "treeadd.df io.adapted.full 5161497 6deebf7c13aebc1090994dc350d8193e";
    "treeadd.df io.adapted.sampled 5021947 3d13651d470ab15e5f2eae24cde1cb66";
    "treeadd.df ooo.base.full 1826471 684e6ac008b7c36342e6a1c4c2efea79";
    "treeadd.df ooo.base.sampled 1843926 cf24ae2d7ffad5796e5c72b103c58b92";
    "treeadd.df ooo.adapted.full 1973295 ade54f439d15da9b542276379cb3a930";
    "treeadd.df ooo.adapted.sampled 1957303 a02330af2aadb12805bf7fefcc3ed037";
    "treeadd.bf funcsim 2704910c10c56a7b11432fb3c698f10c 1694669 0 0";
    "treeadd.bf funcsim.adapted.spawning 2704910c10c56a7b11432fb3c698f10c 1957113 1444134 69850";
    "treeadd.bf profile ecfd252ff528a25fc59a26b26481f0ad";
    "treeadd.bf asm.io 4d7499e94c63a439e0d11791d567a2f7";
    "treeadd.bf asm.ooo 4d7499e94c63a439e0d11791d567a2f7";
    "treeadd.bf io.base.full 5941264 b0d043b51aa06478aa683e2489ec335f";
    "treeadd.bf io.base.sampled 5940805 610e72c2b0531f66223b4dfa318c40ba";
    "treeadd.bf io.adapted.full 5319495 bf079a4f43f3cce55f97eb79d614ff85";
    "treeadd.bf io.adapted.sampled 5083400 b8e2c35017b5d2691838bcd727ed5a52";
    "treeadd.bf ooo.base.full 1349520 190ccaa7905ecaad47fd65eb7692ae6d";
    "treeadd.bf ooo.base.sampled 1355890 12c6ff0fb74a002abbe68961a8cbd315";
    "treeadd.bf ooo.adapted.full 1563342 a2db102ebc8ea687b1dcb86616ebc1bf";
    "treeadd.bf ooo.adapted.sampled 1505774 af5b3828a6625dda8201e69e0834e1ed";
    "mcf funcsim ef50c335cca9f340bde656363ebd02fd 411605 0 0";
    "mcf funcsim.adapted.spawning ef50c335cca9f340bde656363ebd02fd 411649 42152 11";
    "mcf profile 1e101be64a759f4e7c06790ed7b7422c";
    "mcf asm.io 2a4482c14728b30e2dfa13cf4acd5332";
    "mcf asm.ooo 2a4482c14728b30e2dfa13cf4acd5332";
    "mcf io.base.full 734089 9bb9990cd5bd55fbcec8dbbc8aa3e267";
    "mcf io.base.sampled 727518 05b1cfa57fd6326c04d617753469a0bf";
    "mcf io.adapted.full 744898 da16ecc95b68226872953614ef62e764";
    "mcf io.adapted.sampled 728156 3151eaa61357259843c69a001cfdb68e";
    "mcf ooo.base.full 171467 239f4679e06ede57d45905b4c8764230";
    "mcf ooo.base.sampled 169549 b9763f9795a3d795fd4b7ad7059c8f02";
    "mcf ooo.adapted.full 179189 97e6cd17ac15e4cf4af182dec0d31ff9";
    "mcf ooo.adapted.sampled 169366 821b1fe3a9fc9bb3013b57d4d7321b34";
    "vpr funcsim 42c9914571f05fe4a9881199c7d4f14d 1569033 0 0";
    "vpr funcsim.adapted.spawning 42c9914571f05fe4a9881199c7d4f14d 1673705 592553 23113";
    "vpr profile 84152f6581cc545f1a40c07aeeccc54f";
    "vpr asm.io 957f5c9f5b60686c26f1ac502ae77ac5";
    "vpr asm.ooo c74efe80c6f55c26ad8e9e6c50269d0d";
    "vpr io.base.full 3401532 ab38e4c4dd529fa7837b1f5f41d3e7cd";
    "vpr io.base.sampled 3427979 43a3d556beebf5793ac0b19cc4646d02";
    "vpr io.adapted.full 3144138 33768c36c97ed214fa8410663f123681";
    "vpr io.adapted.sampled 3099732 94ede4f7d51945e92798070abef4a4d8";
    "vpr ooo.base.full 1611474 2180656cf9a54705139f28dd66a81fa3";
    "vpr ooo.base.sampled 1617222 3738193f7e6732a51b60d5b55374d782";
    "vpr ooo.adapted.full 1486313 c834b741cfc4e405dc816118c37cf193";
    "vpr ooo.adapted.sampled 1467499 3bf29b95329b8e473df89f7e871ed960";
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
    "gen:1 ooo.base.sampled 421746 4b36039ea6db3fbcb5ccf5ca8e7ee22b";
    "gen:1 ooo.adapted.full 462131 c53b2cb7f1cd336e00712f1de8651786";
    "gen:1 ooo.adapted.sampled 464519 2af8656cb23b545835f5c7668ae46c79";
    "gen:2 funcsim 4d98f580b1a86bd0d910db49cd95b712 347685 0 0";
    "gen:2 funcsim.adapted.spawning 4d98f580b1a86bd0d910db49cd95b712 347694 113388 3";
    "gen:2 profile ca8f041a40de96a49b8af5a63f886cc0";
    "gen:2 asm.io f3a3a3efb6128e2e6a776b2f4b67a4eb";
    "gen:2 asm.ooo f3a3a3efb6128e2e6a776b2f4b67a4eb";
    "gen:2 io.base.full 684367 eac73ba242a354b5ee214b680d9a726a";
    "gen:2 io.base.sampled 678245 62eba34d5dcd4db36ab4fe773ca04bf1";
    "gen:2 io.adapted.full 509226 8b1584d007a4400d58e4bea57dbcd564";
    "gen:2 io.adapted.sampled 679009 54e62e0e8c49bffc900260df2fb0656f";
    "gen:2 ooo.base.full 98060 3854b01c4da27e7f5d50dc27864b3af0";
    "gen:2 ooo.base.sampled 98461 bff45176ea86a5c172e197d4feff3ab7";
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
    "gen:3 ooo.adapted.sampled 200765 0b00ec880000ba97e9f11a444ce8e824";
  ]

let check () =
  let actual = List.concat_map lines programs in
  Alcotest.(check (list string)) "golden digests" expected actual

let suite = [ Alcotest.test_case "pipeline digests" `Slow check ]
