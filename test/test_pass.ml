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
      if e.Pass.Pipeline.ran then
        Alcotest.(check bool)
          (e.Pass.Pipeline.pass_name ^ " validated")
          true e.Pass.Pipeline.validated
      else
        Alcotest.(check bool)
          (e.Pass.Pipeline.pass_name ^ " skipped pass leaves IR size alone")
          true
          (e.Pass.Pipeline.size_before = e.Pass.Pipeline.size_after))
    t.Pass.Pipeline.entries;
  (* optional passes are off by default *)
  List.iter
    (fun name ->
      let e =
        List.find
          (fun e -> e.Pass.Pipeline.pass_name = name)
          t.Pass.Pipeline.entries
      in
      Alcotest.(check bool) (name ^ " disabled by default") false
        e.Pass.Pipeline.ran)
    [ "fuse"; "strip-mine"; "prefetch" ]

let ran_passes (t : Pass.Pipeline.trace) =
  List.filter_map
    (fun (e : Pass.Pipeline.entry) ->
      if e.Pass.Pipeline.ran then Some e.Pass.Pipeline.pass_name else None)
    t.Pass.Pipeline.entries

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

(* Every registered pass — including the optional fuse / strip-mine /
   prefetch passes — over every registry workload at tiny sizes: the
   observable store after executing the program as it leaves each pass
   must equal the base program's. *)
let test_differential_passes () =
  let options =
    {
      no_profile with
      Driver.do_fuse = true;
      Driver.do_strip_mine = true;
      Driver.do_prefetch = true;
    }
  in
  List.iter
    (fun (w : Workload.t) ->
      let base = Program.renumber w.Workload.program in
      let d0 = Data.create base in
      w.Workload.init d0;
      Exec.run base d0;
      let observed = ref [] in
      let (_ : Ast.program * Driver.report) =
        Driver.run ~options ~init:w.Workload.init
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
      enabled = (fun _ -> true);
      rewrite =
        (fun _ p ->
          ({ p with Ast.arrays = p.Ast.arrays @ [ Builder.array_decl "extra" 4 ] }, []));
    }
  in
  let shipped, trace =
    Pass.Pipeline.run { Pass.options = no_profile; source = None } [ grow ] p
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
          if e.Pass.Pipeline.ran && e.Pass.Pipeline.degraded = None then begin
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
   bookkeeping may get cheaper; what they ship must not change.

   Unroll-and-jam and inner unrolling stamp the scalars they rename from
   process-wide counters, and stamped names are later sorted, so the
   output depends on what was clustered earlier in the process. The
   digests are those of a fresh process clustering exactly this list, in
   this order: this test must run first. *)
let pinned_output =
  [
    ("Latbench", "base", "ebcc5db1cdc7604e762f7fa217ff9ac4", "81c8536325a9fbe16a5b6ddd7b03e906", "b4681bba7995c4d051c5170f93f0812f");
    ("Em3d", "base", "5951fc689b1a942f9b6750f52d2acb54", "92bacdb202a1bb32896c47d6a99be06c", "04eb309aaa133314d5d72193b0fd5be0");
    ("Erlebacher", "base", "c5f59bca5100cf3b6f5f257a5d0d4127", "940a872a10c83ac1a3e5c7c14e926844", "ed47526875ce9fad515f5aa155a5db66");
    ("FFT", "base", "23bf5c0186589d40dcfdb83ba1af096b", "fe98fc2fdba690a7955518753e20b82d", "f50a78da276438cf7232da69d978c858");
    ("LU", "base", "b2ace13a8518c199580484f1f2efd23a", "1755555ed8130f80cc08e40d57da1f56", "4325a3f4d1e4cc2a42d71290cde8a9a6");
    ("Mp3d", "base", "facc5f2e85a293f149c01a99ceea96e5", "69c39fc0ef08820bdae541a97772552f", "84a11d49c8309a610c24caf2f87c1509");
    ("MST", "base", "db46187c429842a9a717608ded6304f0", "a5a5ee1df2f97b15ef169155834074fe", "f8c028d99299483080b5317f807a853b");
    ("Ocean", "base", "d40c284a1fc74008b91d4c30fe9c4b1a", "41313c9ac1443ab4b5ef1414e4521f2a", "e15aa533c01cb6577ccc99489467359e");
    ("Latbench", "lp1", "2809030ebbc776b12f6b737d4271a1e6", "ab7a62a590bc61736d86872282f4639f", "c08c0e63d21bc75cc5ad33c02cbeefcc");
    ("Em3d", "lp1", "745a0890c4ec51e70748c16c1a529e63", "e5784f4de746a6e1e6f9e7765e73899b", "1a4ae8a0bd077761003106710ce60983");
    ("Erlebacher", "lp1", "c5f59bca5100cf3b6f5f257a5d0d4127", "680046f9d8c0125e206fec67beba0a55", "ed47526875ce9fad515f5aa155a5db66");
    ("FFT", "lp1", "1f7dd5264ec64bc35337d2c55266e7b4", "a1950b6e3c9bb0802706cde2af7bb1d8", "f50a78da276438cf7232da69d978c858");
    ("LU", "lp1", "2533e6f47eb07e13bf5a240f8c86284a", "791a2ccf87b4c25d5d7cb8e504bd3953", "f9b512c56195669ba8f33ef30ecc0889");
    ("Mp3d", "lp1", "d38aab28ff6a3af614d526e04c08cf57", "6203b6097ce9e8024a88fffe94cb3022", "8a1ccd0fea27d796aa46f5df033cb47c");
    ("MST", "lp1", "4f7e159e0e6d35dae1b2837e46815072", "ab7a62a590bc61736d86872282f4639f", "c08c0e63d21bc75cc5ad33c02cbeefcc");
    ("Ocean", "lp1", "b581e79fb11c8b87dfe7c3f6f1de6646", "e7b667f01ee6fc6a612142a21fe7126e", "97abbb026051a85ff083713093b87af0");
    ("Latbench", "lp16", "7c48ba86d8f87aa3d088e4c0eb82c096", "81c8536325a9fbe16a5b6ddd7b03e906", "b4681bba7995c4d051c5170f93f0812f");
    ("Em3d", "lp16", "2e82ebdd089f4d972b6cf049bec21eb7", "92bacdb202a1bb32896c47d6a99be06c", "04eb309aaa133314d5d72193b0fd5be0");
    ("Erlebacher", "lp16", "c5f59bca5100cf3b6f5f257a5d0d4127", "940a872a10c83ac1a3e5c7c14e926844", "ed47526875ce9fad515f5aa155a5db66");
    ("FFT", "lp16", "0e195a313e856079bee69e6c48a816df", "fe98fc2fdba690a7955518753e20b82d", "f50a78da276438cf7232da69d978c858");
    ("LU", "lp16", "b2ace13a8518c199580484f1f2efd23a", "1755555ed8130f80cc08e40d57da1f56", "4325a3f4d1e4cc2a42d71290cde8a9a6");
    ("Mp3d", "lp16", "24a85c637b5dac639519d41942552b80", "d4766d7979e2a63965c69fd45e0b3f0b", "fc7f66dcb4b74df0566eeccb42d33966");
    ("MST", "lp16", "19cd1f24c66562f2134b3b1e5683a805", "a5a5ee1df2f97b15ef169155834074fe", "baa8e49f6aa05d5bb668d45b1b621657");
    ("Ocean", "lp16", "d40c284a1fc74008b91d4c30fe9c4b1a", "41313c9ac1443ab4b5ef1414e4521f2a", "e15aa533c01cb6577ccc99489467359e");
  ]

let test_pinned_output () =
  let configs =
    [
      ("base", Config.base);
      ("lp1", Config.with_mshrs 1 Config.base);
      ("lp16", Config.with_mshrs 16 Config.base);
    ]
  in
  let hex s = Digest.to_hex (Digest.string s) in
  List.iter
    (fun (name, label, program_digest, report_digest, summaries_digest) ->
      let w = List.find (fun w -> w.Workload.name = name) (Registry.small ()) in
      let machine =
        {
          (Experiment.machine_of_config (List.assoc label configs)) with
          Machine_model.max_procs = max 1 w.Workload.mp_procs;
        }
      in
      let p, report =
        Driver.run
          ~options:{ Driver.default_options with machine }
          ~init:w.Workload.init w.Workload.program
      in
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

let () =
  Alcotest.run "pass"
    [
      (* first: the pinned digests assume a process in which nothing has
         been clustered yet (see [pinned_output]) *)
      ( "pinned",
        [
          Alcotest.test_case "output, all workloads" `Quick test_pinned_output;
        ] );
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
    ]
