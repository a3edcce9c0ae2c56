(* The pass-manager layer: pipeline trace structure, pass selection, the
   var-keyed nest traversal (stable under postlude insertion), and a
   differential semantics check running every registered pass over every
   registry workload at tiny sizes. *)

open Memclust_ir
open Memclust_cluster
open Memclust_sim
open Memclust_workloads
open Memclust_harness

let no_profile = { Driver.default_options with Driver.profile_pm = false }

let fig2a ?(rows = 64) ?(cols = 64) () =
  let open Builder in
  program "fig2a"
    ~arrays:[ array_decl "a" (Stdlib.( * ) rows cols); array_decl "s" rows ]
    [
      loop "j" (cst 0) (cst rows)
        [
          loop "i" (cst 0) (cst cols)
            [
              store (aref "s" (ix "j"))
                (arr "s" (ix "j") + arr "a" (idx2 ~cols (ix "j") (ix "i")));
            ];
        ];
    ]

(* ------------------------- trace structure ------------------------- *)

let test_trace_structure () =
  let _, report = Driver.run ~options:no_profile (fig2a ()) in
  let t = report.Driver.trace in
  Alcotest.(check (list string))
    "one entry per registered pass, in order" Driver.pass_names
    (List.map (fun e -> e.Pass.Pipeline.pass_name) t.Pass.Pipeline.entries);
  Alcotest.(check string) "program name" "fig2a" t.Pass.Pipeline.program_name;
  Alcotest.(check bool) "total time non-negative" true
    (t.Pass.Pipeline.total_ms >= 0.0);
  List.iter
    (fun (e : Pass.Pipeline.entry) ->
      Alcotest.(check bool)
        (e.Pass.Pipeline.pass_name ^ " wall time non-negative")
        true
        (e.Pass.Pipeline.wall_ms >= 0.0);
      Alcotest.(check bool)
        (e.Pass.Pipeline.pass_name ^ " validated")
        true e.Pass.Pipeline.validated)
    t.Pass.Pipeline.entries

let ran_passes (t : Pass.Pipeline.trace) =
  List.map (fun (e : Pass.Pipeline.entry) -> e.Pass.Pipeline.pass_name) t.Pass.Pipeline.entries

let test_pass_selection () =
  let p = fig2a () in
  let _, full = Driver.run ~options:no_profile p in
  let _, only_uj =
    Driver.run ~options:no_profile ~only:[ "analyze"; "unroll-jam" ] p
  in
  Alcotest.(check bool) "full pipeline runs scalar-replace" true
    (List.mem "scalar-replace" (ran_passes full.Driver.trace));
  Alcotest.(check (list string))
    "--passes analyze,unroll-jam runs exactly uniquify + those"
    [ "uniquify"; "analyze"; "unroll-jam" ]
    (ran_passes only_uj.Driver.trace);
  (* leaving one name out of the list is the way to switch a pass off *)
  List.iter
    (fun n ->
      if not (String.equal n "uniquify") then begin
        let rest = List.filter (( <> ) n) Driver.pass_names in
        let _, r = Driver.run ~options:no_profile ~only:rest p in
        Alcotest.(check (list string)) ("every default pass except " ^ n) rest
          (ran_passes r.Driver.trace)
      end)
    Driver.pass_names;
  (match Driver.run ~options:no_profile ~only:[ "no-such-pass" ] p with
  | (_ : Ast.program * Driver.report) ->
      Alcotest.fail "unknown pass name should raise"
  | exception Invalid_argument _ -> ());
  (* the trace round-trips through the JSON emitter without raising and
     mentions every pass *)
  let json = Pass.Pipeline.trace_to_json full.Driver.trace in
  List.iter
    (fun name ->
      let needle = Printf.sprintf "\"name\":\"%s\"" name in
      let found =
        let nl = String.length needle and jl = String.length json in
        let rec scan i =
          i + nl <= jl && (String.sub json i nl = needle || scan (i + 1))
        in
        scan 0
      in
      Alcotest.(check bool) (name ^ " appears in JSON") true found)
    Driver.pass_names

(* --------------- postlude-stable top-level addressing --------------- *)

(* Two identical reduction nests; [rows] is prime and larger than any
   legal unroll factor, so unroll-and-jam of the first nest must leave a
   top-level postlude loop *between* it and the second nest. The old
   driver walked top-level statements by index and re-visited (or
   skipped) nests when postludes shifted those indices; the var-keyed
   traversal must attribute exactly one unroll-and-jam to each source
   nest and keep the semantics. *)
let two_nests ?(rows = 79) ?(cols = 33) () =
  let open Builder in
  let nest j i src dst =
    loop j (cst 0) (cst rows)
      [
        loop i (cst 0) (cst cols)
          [
            store (aref dst (ix j))
              (arr dst (ix j) + arr src (idx2 ~cols (ix j) (ix i)));
          ];
      ]
  in
  program "two_nests"
    ~arrays:
      [
        array_decl "a" (Stdlib.( * ) rows cols);
        array_decl "s" rows;
        array_decl "b" (Stdlib.( * ) rows cols);
        array_decl "t" rows;
      ]
    [ nest "j" "i" "a" "s"; nest "j2" "i2" "b" "t" ]

let test_postlude_shifted_nests () =
  let rows = 79 and cols = 33 in
  let p = two_nests ~rows ~cols () in
  let init d =
    for i = 0 to (rows * cols) - 1 do
      Data.set d "a" i (Ast.Vfloat (float_of_int i *. 0.01));
      Data.set d "b" i (Ast.Vfloat (float_of_int i *. 0.02))
    done
  in
  let p', report = Driver.run ~options:no_profile ~init p in
  Alcotest.(check int) "both source nests analyzed" 2
    (List.length report.Driver.nests);
  List.iter
    (fun (n : Driver.nest_report) ->
      let jammed =
        List.exists
          (function Driver.Unroll_jam _ -> true | _ -> false)
          n.Driver.actions
      in
      Alcotest.(check bool)
        (Printf.sprintf "nest %d (%s) unroll-and-jammed" n.Driver.nest_index
           n.Driver.inner_desc)
        true jammed)
    report.Driver.nests;
  (* the prime trip count guarantees a postlude, so the transformed
     program has more top-level statements than the source: exactly the
     index-shifting situation the traversal must survive *)
  Alcotest.(check bool) "postludes appended at top level" true
    (List.length p'.Ast.body > 2);
  let d1 = Data.create p and d2 = Data.create p' in
  init d1;
  init d2;
  Exec.run p d1;
  Exec.run p' d2;
  Alcotest.(check bool) "semantics preserved across both nests" true
    (Data.equal d1 d2)

(* ---------------- differential per-pass execution ------------------ *)

(* Every registered pass over every registry workload at tiny sizes: the
   observable store after executing the program as it leaves each pass
   must equal the base program's. *)
let test_differential_passes () =
  List.iter
    (fun (w : Workload.t) ->
      let base = Program.renumber w.Workload.program in
      let d0 = Data.create base in
      w.Workload.init d0;
      Exec.run base d0;
      let observed = ref [] in
      let (_ : Ast.program * Driver.report) =
        Driver.run ~options:no_profile ~init:w.Workload.init
          ~observe:(fun pass p -> observed := (pass, p) :: !observed)
          w.Workload.program
      in
      Alcotest.(check bool)
        (w.Workload.name ^ ": observe fired")
        true
        (!observed <> []);
      List.iter
        (fun (pass, p) ->
          let d = Data.create p in
          w.Workload.init d;
          Exec.run p d;
          if not (Data.equal d0 d) then
            Alcotest.fail
              (Printf.sprintf
                 "%s: program after pass %S diverges from the base semantics"
                 w.Workload.name pass))
        (List.rev !observed))
    (Registry.small ())

(* ----------------------------- guard ------------------------------- *)

(* Every execution the guard and the profiler make starts from one shared
   initialized source store, laid out by the declarations: a pass that
   changes them is rolled back as invalid IR. *)
let test_declaration_change_is_invalid () =
  let p = fig2a () in
  let grow =
    {
      Pass.name = "grow";
      description = "declares one more array";
      rewrite =
        (fun _ p ->
          ({ p with Ast.arrays = p.Ast.arrays @ [ Builder.array_decl "extra" 4 ] }, []));
    }
  in
  let shipped, trace =
    Pass.Pipeline.run no_profile [ grow ] p
  in
  (match Pass.Pipeline.degraded_passes trace with
  | [ ("grow", reason) ] ->
      Alcotest.(check string) "degraded as invalid IR" "invalid IR"
        (String.sub reason 0 (String.length "invalid IR"))
  | _ -> Alcotest.fail "the declaration change must degrade exactly its pass");
  Alcotest.(check bool) "source declarations ship" true
    (shipped.Ast.arrays = p.Ast.arrays)

(* [observe] sees only the passes of the run whose result ships: a pass
   rolled back after the final check's replay is not observed, and the
   last observed program is the shipped one. *)
let test_observe_sees_shipped_run () =
  let w = Lu.make ~n:16 ~block:8 () in
  let options =
    {
      Driver.default_options with
      chaos = Some { Pass.chaos_seed = 0; chaos_rate = 0.0; fail_pass = Some "unroll-jam" };
    }
  in
  let observed = ref [] in
  let shipped, report =
    Driver.run ~options ~init:w.Workload.init
      ~observe:(fun pass p -> observed := (pass, p) :: !observed)
      w.Workload.program
  in
  Alcotest.(check (list string)) "accepted passes, in order"
    [ "uniquify"; "analyze"; "window-unroll"; "scalar-replace"; "schedule" ]
    (List.rev_map fst !observed);
  Alcotest.(check bool) "last observed program ships" true
    (match !observed with (_, p) :: _ -> p == shipped | [] -> false);
  let t = report.Driver.trace in
  Alcotest.(check bool) "check time recorded" true (t.Pass.Pipeline.check_ms > 0.0);
  let json = Pass.Pipeline.trace_to_json t in
  let needle = "\"check_ms\":" in
  Alcotest.(check bool) "check_ms in the JSON trace" true
    (let nl = String.length needle in
     let rec scan i =
       i + nl <= String.length json && (String.sub json i nl = needle || scan (i + 1))
     in
     scan 0)

(* --------------------- f/α summaries on demand --------------------- *)

let small name =
  List.find (fun w -> String.equal w.Workload.name name) (Registry.small ())

let cluster_observed name =
  let w = small name in
  let observed = ref [] in
  let _, report =
    Driver.run ~init:w.Workload.init
      ~observe:(fun pass p -> observed := (pass, p) :: !observed)
      w.Workload.program
  in
  (w, report.Driver.trace, !observed)

(* Each entry's summaries, read after the run, are [nest_summaries] of the
   program that pass shipped; the "before" of an accepted pass is
   physically the "after" of the previous accepted one. *)
let test_summaries_on_first_read () =
  let options = Driver.default_options in
  List.iter
    (fun name ->
      let w, trace, observed = cluster_observed name in
      let same what expected cell =
        Alcotest.(check bool) (name ^ " " ^ what) true
          (compare expected (Pass.Pipeline.summaries cell) = 0)
      in
      let previous = ref None in
      List.iter
        (fun (e : Pass.Pipeline.entry) ->
          if e.Pass.Pipeline.degraded = None then begin
            let pass = e.Pass.Pipeline.pass_name in
            (match !previous with
            | None ->
                same "source summaries"
                  (Pass.Pipeline.nest_summaries options (Program.renumber w.Workload.program))
                  e.Pass.Pipeline.f_before
            | Some cell ->
                Alcotest.(check bool) (name ^ " " ^ pass ^ " before is the previous after")
                  true (e.Pass.Pipeline.f_before == cell));
            same (pass ^ " after")
              (Pass.Pipeline.nest_summaries options (List.assoc pass observed))
              e.Pass.Pipeline.f_after;
            previous := Some e.Pass.Pipeline.f_after
          end)
        trace.Pass.Pipeline.entries;
      Alcotest.(check bool) (name ^ " summaries not empty") true
        (match !previous with
        | Some cell -> Pass.Pipeline.summaries cell <> []
        | None -> false))
    [ "Latbench"; "Em3d"; "FFT"; "LU" ]

(* Two domains read one trace's unread summaries at once: equal lists, no
   exception (a [Lazy.t] shared between domains would raise). *)
let test_summaries_two_domains () =
  let _, trace, observed = cluster_observed "FFT" in
  let cells =
    List.concat_map
      (fun (e : Pass.Pipeline.entry) -> [ e.Pass.Pipeline.f_before; e.Pass.Pipeline.f_after ])
      trace.Pass.Pipeline.entries
  in
  let read () = List.map Pass.Pipeline.summaries cells in
  let d1 = Domain.spawn read and d2 = Domain.spawn read in
  let r1 = Domain.join d1 and r2 = Domain.join d2 in
  Alcotest.(check bool) "both domains read equal lists" true (compare r1 r2 = 0);
  Alcotest.(check bool) "and the shipped program's summaries" true
    (compare (List.nth r1 (List.length r1 - 1))
       (Pass.Pipeline.nest_summaries Driver.default_options (List.assoc "schedule" observed))
    = 0)

(* ------------------------- pinned output --------------------------- *)

(* What the pipeline ships, pinned for every small workload at three MSHR
   counts: the clustered program's Marshal digest (the digest the harness
   keys lowering on), the report text's digest and the digest of the
   trace's per-pass f/α summaries. The summaries are marshalled without
   sharing, so only their structure is pinned. The guard and the trace
   bookkeeping may get cheaper; what they ship must not change. *)
let pinned_output =
  [
    ("Latbench", "base", "0dfecc9b2f64bfac75e09b7f9b9e9f84", "81c8536325a9fbe16a5b6ddd7b03e906", "7ac61aa772a9ac379c3bbd2d892c22a5");
    ("Em3d", "base", "e42fb6fd9ab42bd9c7b4def988713080", "92bacdb202a1bb32896c47d6a99be06c", "2551a1021de335b8657f7f642705e532");
    ("Erlebacher", "base", "c5f59bca5100cf3b6f5f257a5d0d4127", "940a872a10c83ac1a3e5c7c14e926844", "c2194ef4aede937dacd1dfaffc82bdc3");
    ("FFT", "base", "3faceae6aae3a808ccb2efd8ceba0391", "fe98fc2fdba690a7955518753e20b82d", "d79d5ee73ef6640d8ede5198dd4962ca");
    ("LU", "base", "b2ace13a8518c199580484f1f2efd23a", "1755555ed8130f80cc08e40d57da1f56", "3a6134b89548ea3ca8d276060713ab84");
    ("Mp3d", "base", "facc5f2e85a293f149c01a99ceea96e5", "69c39fc0ef08820bdae541a97772552f", "f190dfc4254382e0e05bbdb7a96bd4f6");
    ("MST", "base", "78fa553abb1bcd85363f60722d2c152d", "a5a5ee1df2f97b15ef169155834074fe", "582df01de394c11d913ce74047ab759b");
    ("Ocean", "base", "d40c284a1fc74008b91d4c30fe9c4b1a", "41313c9ac1443ab4b5ef1414e4521f2a", "c3211d352feb5f4c630df03d4f3ee0a3");
    ("Latbench", "lp1", "2809030ebbc776b12f6b737d4271a1e6", "ab7a62a590bc61736d86872282f4639f", "2ef23a8c2dd5e8c35ac6fe0698299bac");
    ("Em3d", "lp1", "745a0890c4ec51e70748c16c1a529e63", "e5784f4de746a6e1e6f9e7765e73899b", "b79993ae72bd74dbaacabf876602ce3d");
    ("Erlebacher", "lp1", "c5f59bca5100cf3b6f5f257a5d0d4127", "680046f9d8c0125e206fec67beba0a55", "c2194ef4aede937dacd1dfaffc82bdc3");
    ("FFT", "lp1", "1f7dd5264ec64bc35337d2c55266e7b4", "a1950b6e3c9bb0802706cde2af7bb1d8", "d79d5ee73ef6640d8ede5198dd4962ca");
    ("LU", "lp1", "2533e6f47eb07e13bf5a240f8c86284a", "791a2ccf87b4c25d5d7cb8e504bd3953", "4aa4cb9f9fff023fe55165109ddf704c");
    ("Mp3d", "lp1", "d38aab28ff6a3af614d526e04c08cf57", "6203b6097ce9e8024a88fffe94cb3022", "c4d983da37702e2b8870beeb12467daf");
    ("MST", "lp1", "4f7e159e0e6d35dae1b2837e46815072", "ab7a62a590bc61736d86872282f4639f", "2ef23a8c2dd5e8c35ac6fe0698299bac");
    ("Ocean", "lp1", "b581e79fb11c8b87dfe7c3f6f1de6646", "e7b667f01ee6fc6a612142a21fe7126e", "52bed374400f77caba738974dfc3ece6");
    ("Latbench", "lp16", "0dfecc9b2f64bfac75e09b7f9b9e9f84", "81c8536325a9fbe16a5b6ddd7b03e906", "7ac61aa772a9ac379c3bbd2d892c22a5");
    ("Em3d", "lp16", "e42fb6fd9ab42bd9c7b4def988713080", "92bacdb202a1bb32896c47d6a99be06c", "2551a1021de335b8657f7f642705e532");
    ("Erlebacher", "lp16", "c5f59bca5100cf3b6f5f257a5d0d4127", "940a872a10c83ac1a3e5c7c14e926844", "c2194ef4aede937dacd1dfaffc82bdc3");
    ("FFT", "lp16", "3faceae6aae3a808ccb2efd8ceba0391", "fe98fc2fdba690a7955518753e20b82d", "d79d5ee73ef6640d8ede5198dd4962ca");
    ("LU", "lp16", "b2ace13a8518c199580484f1f2efd23a", "1755555ed8130f80cc08e40d57da1f56", "3a6134b89548ea3ca8d276060713ab84");
    ("Mp3d", "lp16", "942dab25d539420bd2360433c5bf441b", "d4766d7979e2a63965c69fd45e0b3f0b", "030ab4532498d9c0b1baceec6176f9f0");
    ("MST", "lp16", "78fa553abb1bcd85363f60722d2c152d", "a5a5ee1df2f97b15ef169155834074fe", "582df01de394c11d913ce74047ab759b");
    ("Ocean", "lp16", "d40c284a1fc74008b91d4c30fe9c4b1a", "41313c9ac1443ab4b5ef1414e4521f2a", "c3211d352feb5f4c630df03d4f3ee0a3");
  ]

let hex s = Digest.to_hex (Digest.string s)

let lp_configs =
  [
    ("base", Config.base);
    ("lp1", Config.with_mshrs 1 Config.base);
    ("lp2", Config.with_mshrs 2 Config.base);
    ("lp4", Config.with_mshrs 4 Config.base);
    ("lp16", Config.with_mshrs 16 Config.base);
  ]

let machine_for (w : Workload.t) label =
  {
    (Experiment.machine_of_config (List.assoc label lp_configs)) with
    Machine_model.max_procs = max 1 w.Workload.mp_procs;
  }

(* Cluster small workload [name] for the machine of configuration [label]. *)
let cluster_small name label =
  let w = small name in
  Driver.run
    ~options:{ Driver.default_options with machine = machine_for w label }
    ~init:w.Workload.init w.Workload.program

let test_pinned_output () =
  List.iter
    (fun (name, label, program_digest, report_digest, summaries_digest) ->
      let p, report = cluster_small name label in
      let summaries =
        List.map
          (fun (e : Pass.Pipeline.entry) ->
            ( e.Pass.Pipeline.pass_name,
              Pass.Pipeline.summaries e.Pass.Pipeline.f_before,
              Pass.Pipeline.summaries e.Pass.Pipeline.f_after ))
          report.Driver.trace.Pass.Pipeline.entries
      in
      let what = name ^ "@" ^ label in
      Alcotest.(check string) (what ^ " program") program_digest
        (hex (Marshal.to_string p []));
      Alcotest.(check string) (what ^ " report") report_digest
        (hex (Format.asprintf "%a" Driver.pp_report report));
      Alcotest.(check string) (what ^ " f/alpha summaries") summaries_digest
        (hex (Marshal.to_string summaries [ Marshal.No_sharing ])))
    pinned_output

(* Clustering is a function of the program, the store and the machine:
   the small registry clustered in one order and then in the reverse
   order, in one process, gives the same programs. *)
let test_order_independent () =
  let points =
    List.concat_map
      (fun label ->
        List.map (fun (w : Workload.t) -> (w.Workload.name, label)) (Registry.small ()))
      [ "base"; "lp4"; "lp16" ]
  in
  let digest (name, label) =
    hex (Marshal.to_string (fst (cluster_small name label)) [])
  in
  let forward = List.map digest points in
  let backward = List.rev (List.map digest (List.rev points)) in
  List.iter2
    (fun ((name, label), f) b ->
      Alcotest.(check string) (name ^ "@" ^ label ^ " program") f b)
    (List.combine points forward)
    backward

(* A clustered program clustered again for more MSHRs unrolls bodies
   whose scalars already carry stamped names. Without the guard (no
   store), only fresh stamps keep the copies' renamed scalars apart. *)
let test_recluster_draws_fresh_stamps () =
  List.iter
    (fun (name, first) ->
      let w = small name in
      let p1, _ = cluster_small name first in
      let p2, _ =
        Driver.run ~options:{ no_profile with Driver.machine = machine_for w "lp16" } p1
      in
      Alcotest.(check bool) (name ^ ": clustered again") true (p2 <> p1);
      let final p =
        let d = Data.create p in
        w.Workload.init d;
        Exec.run p d;
        d
      in
      Alcotest.(check bool) (name ^ ": semantics preserved") true
        (Data.equal (final (Program.renumber w.Workload.program)) (final p2)))
    [ ("Latbench", "lp2"); ("MST", "lp4") ]

let () =
  Alcotest.run "pass"
    [
      ( "pipeline",
        [
          Alcotest.test_case "trace structure" `Quick test_trace_structure;
          Alcotest.test_case "pass selection" `Quick test_pass_selection;
        ] );
      ( "guard",
        [
          Alcotest.test_case "declaration change is invalid IR" `Quick
            test_declaration_change_is_invalid;
          Alcotest.test_case "observe sees the shipped run" `Quick
            test_observe_sees_shipped_run;
        ] );
      ( "summaries",
        [
          Alcotest.test_case "computed on first read" `Quick
            test_summaries_on_first_read;
          Alcotest.test_case "read from two domains" `Quick
            test_summaries_two_domains;
        ] );
      ( "traversal",
        [
          Alcotest.test_case "postlude-shifted nests" `Quick
            test_postlude_shifted_nests;
        ] );
      ( "differential",
        [
          Alcotest.test_case "all passes, all workloads" `Slow
            test_differential_passes;
        ] );
      ( "pinned",
        [
          Alcotest.test_case "output, all workloads" `Quick test_pinned_output;
        ] );
      ( "stamps",
        [
          Alcotest.test_case "order independent" `Quick test_order_independent;
          Alcotest.test_case "reclustering draws fresh ones" `Quick
            test_recluster_draws_fresh_stamps;
        ] );
    ]
