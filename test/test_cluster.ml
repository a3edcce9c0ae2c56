open Memclust_ir
open Memclust_locality
open Memclust_depgraph
open Memclust_cluster

(* ------------------------- f estimation ---------------------------- *)

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

let inner_of p =
  match p.Ast.body with
  | [ Ast.Loop l ] -> (
      match l.Ast.body with [ Ast.Loop i ] -> Depgraph.Counted i | _ -> assert false)
  | _ -> assert false

let test_f_base () =
  let p = fig2a () in
  let loc = Locality.analyze ~line_size:64 p in
  let inner = inner_of p in
  let graph = Depgraph.analyze loc inner in
  let f = Festimate.compute Machine_model.base loc ~pm:(fun _ -> 1.0) ~graph inner in
  (* one regular leading ref (a), lm=8, body ~7 ops: C = ceil(64/56) = 2 *)
  Alcotest.(check int) "regular leading refs" 1 f.Festimate.regular_leading;
  Alcotest.(check int) "irregular leading refs" 0 f.Festimate.irregular_leading;
  Alcotest.(check bool) "f small" true (f.Festimate.f <= 2.0);
  Alcotest.(check (float 1e-9)) "density 1/8" 0.125 f.Festimate.misses_per_iteration

let test_f_address_recurrence_c1 () =
  (* pointer chase: C_m forced to 1 even with a tiny body *)
  let p =
    let open Builder in
    program "chase"
      ~arrays:[ array_decl "start" 8 ]
      ~regions:[ region_decl ~node_size:64 "n" 64 ]
      [
        loop "j" (cst 0) (cst 8)
          [ chase "p" ~init:(ld (aref "start" (ix "j"))) ~region:"n" ~next:0 [] ];
      ]
  in
  let loc = Locality.analyze ~line_size:64 p in
  let c = List.hd (Program.chases p) in
  let graph = Depgraph.analyze loc (Depgraph.Chased c) in
  let f =
    Festimate.compute Machine_model.base loc ~pm:(fun _ -> 1.0) ~graph
      (Depgraph.Chased c)
  in
  Alcotest.(check (float 1e-9)) "f = 1 (one serialized chain)" 1.0 f.Festimate.f

let test_f_irregular_rounding () =
  (* two irregular refs with Pm=0.2: sum 0.4 rounds up to 1 *)
  let p =
    let open Builder in
    program "irr"
      ~arrays:[ array_decl "v" 256; array_decl "idx" 256; array_decl "o" 64 ]
      [
        loop "i" (cst 0) (cst 64)
          [
            store (aref "o" (ix "i"))
              (ld (iref "v" (arr "idx" (ix "i"))) + ld (iref "v" (arr "idx" (ix "i" +: cst 64))));
          ];
      ]
  in
  let loc = Locality.analyze ~line_size:64 p in
  let l = match p.Ast.body with [ Ast.Loop l ] -> l | _ -> assert false in
  let graph = Depgraph.analyze loc (Depgraph.Counted l) in
  let f =
    Festimate.compute Machine_model.base loc ~pm:(fun _ -> 0.01) ~graph
      (Depgraph.Counted l)
  in
  Alcotest.(check bool) "irregulars reserve at least one" true
    (f.Festimate.f_irreg >= 1.0)

(* --------------------------- the driver ---------------------------- *)

let no_profile = { Driver.default_options with Driver.profile_pm = false }

let test_driver_picks_lp () =
  let p = fig2a ~rows:128 ~cols:64 () in
  let p', report = Driver.run ~options:no_profile p in
  (match report.Driver.nests with
  | [ n ] -> (
      match
        List.find_opt
          (function Driver.Unroll_jam _ -> true | _ -> false)
          n.Driver.actions
      with
      | Some (Driver.Unroll_jam { factor; f_after; _ }) ->
          Alcotest.(check bool) "factor within (5,10]" true (factor > 5 && factor <= 10);
          Alcotest.(check bool) "f_after <= lp" true (f_after <= 10.0)
      | _ -> Alcotest.fail "expected an unroll-and-jam action")
  | _ -> Alcotest.fail "expected one nest");
  match Program.validate p' with Ok () -> () | Error e -> Alcotest.fail e

let test_driver_semantics () =
  let p = fig2a ~rows:77 ~cols:33 () in
  let init d =
    for i = 0 to (77 * 33) - 1 do
      Data.set d "a" i (Ast.Vfloat (float_of_int i *. 0.01))
    done
  in
  let p', _ = Driver.run ~options:no_profile ~init p in
  let d1 = Data.create p and d2 = Data.create p' in
  init d1;
  init d2;
  Exec.run p d1;
  Exec.run p' d2;
  Alcotest.(check bool) "clustered program computes the same result" true
    (Data.equal d1 d2)

let test_driver_no_enclosing_loop () =
  (* single loop with a recurrence and no parent: nothing to unroll-and-jam *)
  let p =
    let open Builder in
    program "single"
      ~arrays:[ array_decl "a" 4096; array_decl "o" 1 ]
      [
        assign "s" (flt 0.0);
        loop "i" (cst 0) (cst 4096) [ assign "s" (sc "s" + arr "a" (ix "i")) ];
        store (aref "o" (cst 0)) (sc "s");
      ]
  in
  let _, report = Driver.run ~options:no_profile p in
  Alcotest.(check bool) "no unroll-and-jam action" true
    (List.for_all
       (fun n ->
         List.for_all
           (function Driver.Unroll_jam _ -> false | _ -> true)
           n.Driver.actions)
       report.Driver.nests)

let test_driver_window_resolution () =
  (* big body, padded records, no recurrence: inner unrolling kicks in *)
  let p =
    let open Builder in
    let big_expr base =
      (* enough arithmetic to exceed the window in a few iterations *)
      let rec build k acc =
        if Stdlib.( = ) k 0 then acc
        else build (Stdlib.( - ) k 1) (acc * flt 1.0001 + flt 0.5)
      in
      build 18 base
    in
    program "bigbody"
      ~arrays:[ array_decl "recs" 8192; array_decl "o" 8192 ]
      [
        loop "i" (cst 0) (cst 1024)
          [
            assign "x" (arr "recs" (8 *: ix "i"));
            store (aref "o" (8 *: ix "i")) (big_expr (sc "x"));
          ];
      ]
  in
  let _, report = Driver.run ~options:no_profile p in
  let has_inner_unroll =
    List.exists
      (fun n ->
        List.exists
          (function Driver.Inner_unroll _ -> true | _ -> false)
          n.Driver.actions)
      report.Driver.nests
  in
  Alcotest.(check bool) "window constraints resolved by inner unrolling" true
    has_inner_unroll

let test_driver_respects_flags () =
  let p = fig2a () in
  let only =
    List.filter
      (fun n -> not (List.mem n [ "unroll-jam"; "window-unroll" ]))
      Driver.pass_names
  in
  let _, report = Driver.run ~options:no_profile ~only p in
  Alcotest.(check bool) "no transform actions" true
    (List.for_all
       (fun n ->
         List.for_all
           (function Driver.Rejected _ -> true | _ -> false)
           n.Driver.actions)
       report.Driver.nests)

let test_machine_models () =
  Alcotest.(check int) "base window" 64 Machine_model.base.Machine_model.window;
  Alcotest.(check int) "base mshrs" 10 Machine_model.base.Machine_model.mshrs;
  Alcotest.(check int) "exemplar window" 56
    Machine_model.exemplar_like.Machine_model.window;
  Alcotest.(check int) "exemplar line" 32
    Machine_model.exemplar_like.Machine_model.line_size

(* every workload's transformation preserves semantics: the strongest
   integration property in the suite *)
let test_workload_semantics name =
  Alcotest.test_case name `Slow (fun () ->
      match Memclust_workloads.Registry.by_name name with
      | None -> Alcotest.fail "unknown workload"
      | Some w ->
          let open Memclust_workloads in
          let p', _ =
            Driver.run ~options:Driver.default_options ~init:w.Workload.init
              w.Workload.program
          in
          let d1 = Data.create w.Workload.program in
          let d2 = Data.create p' in
          w.Workload.init d1;
          w.Workload.init d2;
          Exec.run w.Workload.program d1;
          Exec.run p' d2;
          Alcotest.(check bool) "semantics preserved" true (Data.equal d1 d2))



(* regression: sibling loops sharing a variable name (FFT stages, Ocean
   sweeps) must be transformed independently, not overwritten by one
   another's rewrite *)
let test_sibling_loops_same_var () =
  let n = 32 in
  let p =
    let open Builder in
    program "siblings"
      ~arrays:
        [ array_decl "a" (Stdlib.( * ) n n); array_decl "b" (Stdlib.( * ) n n);
          array_decl "s" n ]
      [
        loop "r" (cst 0) (cst n)
          [
            loop "g" (cst 0) (cst n)
              [ store (aref "s" (ix "r")) (arr "s" (ix "r") + arr "a" (idx2 ~cols:n (ix "r") (ix "g"))) ];
            loop "g" (cst 0) (cst n)
              [ store (aref "s" (ix "r")) (arr "s" (ix "r") * arr "b" (idx2 ~cols:n (ix "r") (ix "g"))) ];
          ];
      ]
  in
  let init d =
    for i = 0 to (n * n) - 1 do
      Data.set d "a" i (Ast.Vfloat (float_of_int i *. 0.001));
      Data.set d "b" i (Ast.Vfloat (1.0 +. (float_of_int i *. 0.0001)))
    done;
    for i = 0 to n - 1 do
      Data.set d "s" i (Ast.Vfloat 1.0)
    done
  in
  let p', _ = Driver.run ~options:no_profile ~init p in
  let d1 = Data.create p and d2 = Data.create p' in
  init d1;
  init d2;
  Exec.run p d1;
  Exec.run p' d2;
  Alcotest.(check bool) "both sibling stages computed correctly" true
    (Data.equal d1 d2)

(* regression: repeated unroll-and-jam over the same code must not
   collide renamed scalars (the FFT r-then-g jam bug) *)
let test_nested_jam_rename_stamps () =
  let n = 16 in
  let p =
    let open Builder in
    program "nested_jam"
      ~arrays:[ array_decl "a" (Stdlib.( * ) n n); array_decl "o" (Stdlib.( * ) n n) ]
      [
        loop ~parallel:true "r" (cst 0) (cst n)
          [
            loop "g" (cst 0) (cst n)
              [
                assign "t" (arr "a" (idx2 ~cols:n (ix "r") (ix "g")));
                store (aref "o" (idx2 ~cols:n (ix "r") (ix "g"))) (sc "t" * sc "t");
              ];
          ];
      ]
  in
  let open Memclust_transform in
  let r_loop = match p.Ast.body with [ Ast.Loop l ] -> l | _ -> assert false in
  let g_loop = match r_loop.Ast.body with [ Ast.Loop l ] -> l | _ -> assert false in
  (* first jam g by 4 inside r, then jam r by 2 over the result *)
  match Unroll_jam.apply ~stamp:1 ~factor:4 g_loop with
  | Error e -> Alcotest.failf "inner jam: %a" Unroll_jam.pp_error e
  | Ok g_stmts -> (
      let r_loop = { r_loop with Ast.body = g_stmts } in
      match Unroll_jam.apply ~stamp:2 ~factor:2 r_loop with
      | Error e -> Alcotest.failf "outer jam: %a" Unroll_jam.pp_error e
      | Ok r_stmts ->
          let p' = Program.renumber { p with Ast.body = r_stmts } in
          let init d =
            for i = 0 to (n * n) - 1 do
              Data.set d "a" i (Ast.Vfloat (float_of_int i))
            done
          in
          let d1 = Data.create p and d2 = Data.create p' in
          init d1;
          init d2;
          Exec.run p d1;
          Exec.run p' d2;
          Alcotest.(check bool) "no renamed-scalar collisions" true
            (Data.equal d1 d2))

(* ------------------------- P_m profiling --------------------------- *)

(* [Festimate.reads_pm] decides whether the driver profiles a construct,
   so it must hold exactly when [compute] calls its [pm]: when false, a
   [pm] that raises changes nothing; when true, [pm] is called. *)
let reads_pm_matches_compute loc inner =
  let graph = Depgraph.analyze loc inner in
  let compute pm = Festimate.compute Machine_model.base loc ~pm ~graph inner in
  if Festimate.reads_pm loc inner then begin
    let called = ref false in
    ignore
      (compute (fun _ ->
           called := true;
           1.0));
    !called
  end
  else
    match compute (fun _ -> failwith "pm read") with
    | f -> f = compute (fun _ -> 1.0)
    | exception Failure _ -> false

(* every inner construct of every top-level nest *)
let inner_constructs p =
  List.concat_map
    (fun var ->
      match Pass.find_nest p var with
      | None -> []
      | Some (_, nest) -> List.map (fun (l : Pass.located) -> l.Pass.inner) (Pass.locate_all nest))
    (Pass.source_nest_vars p)

let test_reads_pm_registry () =
  let open Memclust_workloads in
  let seen = ref (0, 0) in
  List.iter
    (fun (w : Workload.t) ->
      let p = w.Workload.program in
      let loc = Locality.analyze ~line_size:64 p in
      List.iter
        (fun inner ->
          let reads, skips = !seen in
          seen :=
            if Festimate.reads_pm loc inner then (reads + 1, skips) else (reads, skips + 1);
          if not (reads_pm_matches_compute loc inner) then
            Alcotest.failf "%s, inner %s: reads_pm disagrees with compute"
              w.Workload.name (Pass.inner_desc inner))
        (inner_constructs p))
    (Registry.small ());
  (* both answers occur, so neither constant predicate passes *)
  let reads, skips = !seen in
  Alcotest.(check bool) "some constructs read P_m" true (reads > 0);
  Alcotest.(check bool) "some constructs skip P_m" true (skips > 0)

let prop_reads_pm =
  QCheck.Test.make ~name:"reads_pm iff compute calls pm" ~count:200
    Gen_program.arbitrary
    (fun cfg ->
      let p = Gen_program.build cfg in
      let loc = Locality.analyze ~line_size:64 p in
      List.for_all (reads_pm_matches_compute loc) (inner_constructs p))

(* The P_m memo keys on the contents of the initialized store: one
   program over two stores whose index arrays give its irregular load
   opposite miss rates must report two different f values, each the same
   whichever run came first. *)
let test_pm_keys_on_store () =
  let n = 256 and v_len = 65536 in
  let p =
    let open Builder in
    program "gather"
      ~arrays:[ array_decl "v" v_len; array_decl "idx" n; array_decl "o" n ]
      [ loop "i" (cst 0) (cst n) [ store (aref "o" (ix "i")) (ld (iref "v" (arr "idx" (ix "i")))) ] ]
  in
  (* every load of v hits one line, or each touches a new line *)
  let init stride d =
    for i = 0 to n - 1 do
      Data.set d "idx" i (Ast.Vint (i * stride mod v_len))
    done
  in
  let f_initial init =
    let _, report = Driver.run ~only:[ "analyze" ] ~init p in
    match report.Driver.nests with
    | [ nest ] -> nest.Driver.f_initial
    | _ -> Alcotest.fail "expected one nest"
  in
  let same = f_initial (init 0) in
  let spread = f_initial (init (8 * 1031)) in
  Alcotest.(check bool) "distinct miss rates give distinct f" true (spread > same);
  Alcotest.(check (float 0.0)) "first store's f again" same (f_initial (init 0));
  Alcotest.(check (float 0.0)) "second store's f again" spread (f_initial (init (8 * 1031)))

(* The driver profiles each nest's candidates cut after that nest. Exact:
   a nest's references run only inside it, after the statements before
   it, so the cut program's miss rates are the whole program's. Checked
   for every reference of each top-level nest of Em3d, as written (with
   its loop variables made unique, as the driver sees it) and as
   clustered (the unroll-and-jammed nests and their postludes). *)
let test_cut_profile_exact () =
  let w =
    List.find
      (fun (w : Memclust_workloads.Workload.t) -> String.equal w.name "Em3d")
      (Memclust_workloads.Registry.small ())
  in
  let clustered, _ = Driver.run ~init:w.init w.program in
  List.iter
    (fun (label, p) ->
      let data = Data.create p in
      w.init data;
      let whole = Profile.run p data in
      let nests = Pass.source_nest_vars p in
      Alcotest.(check bool) (label ^ ": two nests") true (List.length nests >= 2);
      List.iter
        (fun var ->
          let i, nest = Option.get (Pass.find_nest p var) in
          let cut = Pass.cut_after_nest p i in
          Alcotest.(check int)
            (Printf.sprintf "%s %s: cut keeps the body through the nest" label var)
            (i + 1)
            (List.length cut.Ast.body);
          let prof = Profile.run cut data in
          let refs = Program.refs_in_stmts [ Ast.Loop nest ] in
          Alcotest.(check bool) (label ^ " " ^ var ^ ": has references") true (refs <> []);
          List.iter
            (fun (r : Program.ref_info) ->
              let id = r.Program.ref_.Ast.ref_id in
              let what = Printf.sprintf "%s %s ref %d" label var id in
              Alcotest.(check int) (what ^ " accesses") (Profile.accesses whole id)
                (Profile.accesses prof id);
              Alcotest.(check (float 0.0)) (what ^ " miss rate")
                (Profile.miss_rate whole id) (Profile.miss_rate prof id))
            refs)
        nests)
    [ ("source", fst (Driver.run ~only:[] w.program)); ("clustered", clustered) ]

(* ------------------------ pipeline fuzzing ------------------------- *)

let exec_equal p1 p2 init =
  let d1 = Data.create p1 and d2 = Data.create p2 in
  init d1;
  init d2;
  Exec.run p1 d1;
  Exec.run p2 d2;
  Data.equal d1 d2

let prop_driver_fuzz =
  QCheck.Test.make ~name:"driver preserves semantics on random nests" ~count:60
    Gen_program.arbitrary
    (fun cfg ->
      let p = Gen_program.build cfg in
      (match Program.validate p with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_reportf "generator produced invalid program: %s" e);
      let p', _ = Driver.run ~options:no_profile ~init:(Gen_program.init cfg) p in
      exec_equal p p' (Gen_program.init cfg))

let prop_prefetch_fuzz =
  QCheck.Test.make ~name:"prefetch pass is a no-op on semantics" ~count:60
    Gen_program.arbitrary
    (fun cfg ->
      let p = Gen_program.build cfg in
      let p', _ = Memclust_transform.Prefetch_pass.insert p in
      exec_equal p p' (Gen_program.init cfg))

let prop_driver_then_prefetch_fuzz =
  QCheck.Test.make ~name:"driver + prefetch compose" ~count:30
    Gen_program.arbitrary
    (fun cfg ->
      let p = Gen_program.build cfg in
      let p', _ = Driver.run ~options:no_profile ~init:(Gen_program.init cfg) p in
      let p'', _ = Memclust_transform.Prefetch_pass.insert p' in
      exec_equal p p'' (Gen_program.init cfg))

let () =
  Alcotest.run "cluster"
    [
      ( "festimate",
        [
          Alcotest.test_case "base f" `Quick test_f_base;
          Alcotest.test_case "address recurrence C=1" `Quick test_f_address_recurrence_c1;
          Alcotest.test_case "irregular rounding" `Quick test_f_irregular_rounding;
        ] );
      ( "driver",
        [
          Alcotest.test_case "picks factor near lp" `Quick test_driver_picks_lp;
          Alcotest.test_case "semantics" `Quick test_driver_semantics;
          Alcotest.test_case "no enclosing loop" `Quick test_driver_no_enclosing_loop;
          Alcotest.test_case "window resolution" `Quick test_driver_window_resolution;
          Alcotest.test_case "option flags" `Quick test_driver_respects_flags;
          Alcotest.test_case "machine models" `Quick test_machine_models;
        ] );
      ( "profile-pm",
        [
          Alcotest.test_case "reads_pm on Registry.small" `Quick test_reads_pm_registry;
          QCheck_alcotest.to_alcotest prop_reads_pm;
          Alcotest.test_case "memo keys on store contents" `Quick test_pm_keys_on_store;
          Alcotest.test_case "cut profile is exact (Em3d)" `Quick test_cut_profile_exact;
        ] );
      ( "regressions",
        [
          Alcotest.test_case "sibling same-var loops" `Quick test_sibling_loops_same_var;
          Alcotest.test_case "nested jam rename stamps" `Quick test_nested_jam_rename_stamps;
        ] );
      ( "fuzz",
        [
          QCheck_alcotest.to_alcotest prop_driver_fuzz;
          QCheck_alcotest.to_alcotest prop_prefetch_fuzz;
          QCheck_alcotest.to_alcotest prop_driver_then_prefetch_fuzz;
        ] );
      ( "workload semantics",
        List.map test_workload_semantics
          [ "Latbench"; "Em3d"; "Erlebacher"; "FFT"; "LU"; "Mp3d"; "MST"; "Ocean" ] );
    ]
