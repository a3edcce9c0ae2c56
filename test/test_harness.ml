open Memclust_ir
open Memclust_sim
open Memclust_workloads
open Memclust_harness

(* a tiny custom workload so harness tests stay fast *)
let tiny () =
  let n = 32 in
  let program =
    let open Builder in
    program "tiny"
      ~arrays:[ array_decl "a" (Stdlib.( * ) n n); array_decl "s" n ]
      [
        loop ~parallel:true "j" (cst 0) (cst n)
          [
            loop "i" (cst 0) (cst n)
              [
                store (aref "s" (ix "j"))
                  (arr "s" (ix "j") + arr "a" (idx2 ~cols:n (ix "j") (ix "i")));
              ];
          ];
      ]
  in
  let init d =
    for i = 0 to (n * n) - 1 do
      Data.set d "a" i (Ast.Vfloat (float_of_int i))
    done
  in
  {
    Workload.name = "tiny";
    program;
    init;
    l2_bytes = 16 * 1024;
    mp_procs = 4;
    description = "test workload";
  }

let test_machine_of_config () =
  let m = Experiment.machine_of_config Config.base in
  Alcotest.(check int) "window" 64 m.Memclust_cluster.Machine_model.window;
  Alcotest.(check int) "mshrs" 10 m.Memclust_cluster.Machine_model.mshrs;
  let m = Experiment.machine_of_config Config.exemplar_like in
  Alcotest.(check int) "exemplar line" 32 m.Memclust_cluster.Machine_model.line_size

let test_execute_base_vs_clustered () =
  let w = tiny () in
  let spec version =
    { Experiment.workload = w; config = Config.base; nprocs = 1; version }
  in
  let b = Experiment.execute_cached (spec Experiment.Base) in
  let c = Experiment.execute_cached (spec Experiment.Clustered) in
  Alcotest.(check bool) "base has no cluster report" true
    (b.Experiment.cluster_report = None);
  Alcotest.(check bool) "clustered has report" true
    (c.Experiment.cluster_report <> None);
  Alcotest.(check bool) "clustering helps the miss-bound kernel" true
    (Experiment.exec_cycles c < Experiment.exec_cycles b);
  Alcotest.(check bool) "data stall reduced" true
    (Experiment.data_stall c < Experiment.data_stall b)

let test_execute_multiproc () =
  let w = tiny () in
  let spec nprocs =
    {
      Experiment.workload = w;
      config = Config.base;
      nprocs;
      version = Experiment.Base;
    }
  in
  let up = Experiment.execute_cached (spec 1) in
  let mp = Experiment.execute_cached (spec 4) in
  Alcotest.(check bool) "parallel run is faster" true
    (Experiment.exec_cycles mp < Experiment.exec_cycles up)

let test_cached_is_stable () =
  let w = tiny () in
  let spec =
    {
      Experiment.workload = w;
      config = Config.base;
      nprocs = 1;
      version = Experiment.Base;
    }
  in
  let a = Experiment.execute_cached spec in
  let b = Experiment.execute_cached spec in
  Alcotest.(check bool) "one shared sim result" true
    (a.Experiment.result == b.Experiment.result);
  Alcotest.(check (list string)) "one memo per layer, no outcome memo"
    [ "driver-profile-pm"; "harness-cluster"; "harness-lower"; "harness-sim" ]
    (List.sort String.compare
       (List.map fst (Memclust_util.Analysis_cache.registered ())))

(* [execute_all] runs each point once over the pool: a point whose [init]
   raises fails in its own slot after the pool's two attempts, and is not
   run again when it is looked up *)
let test_execute_all_runs_once () =
  let good = tiny () in
  let calls = Atomic.make 0 in
  let bad =
    {
      (tiny ()) with
      Workload.name = "tiny-bad-init";
      init = (fun _ -> Atomic.incr calls; failwith "bad init");
    }
  in
  let spec w =
    { Experiment.workload = w; config = Config.base; nprocs = 1; version = Experiment.Base }
  in
  let get = Experiment.execute_all [ spec good; spec bad; spec good ] in
  let o = get (spec good) in
  Alcotest.(check string) "good outcome intact" (Experiment.spec_key (spec good))
    (Experiment.spec_key o.Experiment.spec);
  Alcotest.(check bool) "good outcome simulated" true (Experiment.exec_cycles o > 0);
  (match get (spec bad) with
  | _ -> Alcotest.fail "the bad spec's lookup must raise"
  | exception Memclust_util.Error.Error (Memclust_util.Error.Worker_crashed { task; attempts; _ }) ->
      Alcotest.(check string) "names the bad spec" (Experiment.spec_key (spec bad)) task;
      Alcotest.(check int) "after the pool's attempts" 2 attempts);
  Alcotest.(check int) "init ran once per pool attempt" 2 (Atomic.get calls)

(* a point that raises a structured [Error.Error] (deterministic, like a
   simulator deadlock) is not retried: it runs once and its lookup
   raises that very error *)
let test_execute_all_no_retry_on_error () =
  let calls = Atomic.make 0 in
  let err =
    Memclust_util.Error.Config_invalid { config = "tiny-err"; reason = "always fails" }
  in
  let bad =
    {
      (tiny ()) with
      Workload.name = "tiny-error-init";
      init = (fun _ -> Atomic.incr calls; Memclust_util.Error.raise_err err);
    }
  in
  let spec =
    { Experiment.workload = bad; config = Config.base; nprocs = 1; version = Experiment.Base }
  in
  let get = Experiment.execute_all [ spec ] in
  (match get spec with
  | _ -> Alcotest.fail "the failing spec's lookup must raise"
  | exception Memclust_util.Error.Error e ->
      Alcotest.(check string) "the structured error as raised"
        (Memclust_util.Error.to_string err) (Memclust_util.Error.to_string e));
  Alcotest.(check int) "init ran once" 1 (Atomic.get calls)

(* [Config.with_mshrs] keeps the config's name: [spec_key] (which
   [execute_all] dedupes on) and the memos must key on the contents, or
   the second spec would get the first one's result *)
let test_cached_keys_on_config_contents () =
  let w = tiny () in
  let spec mshrs =
    {
      Experiment.workload = w;
      config = Config.with_mshrs mshrs Config.base;
      nprocs = 1;
      version = Experiment.Clustered;
    }
  in
  let one = spec 1 and sixteen = spec 16 in
  Alcotest.(check string) "same config name" one.Experiment.config.Config.name
    sixteen.Experiment.config.Config.name;
  Alcotest.(check bool) "distinct memo keys" true
    (Experiment.spec_key one <> Experiment.spec_key sixteen);
  let a = Experiment.execute_cached one in
  let b = Experiment.execute_cached sixteen in
  Alcotest.(check bool) "distinct outcomes" true
    (Experiment.exec_cycles a <> Experiment.exec_cycles b)

(* Two configs equal in contents but not in sharing (one string shared by
   [name] and [sim_mode], or two copies of it) are one simulation: the
   sim memo keys on contents, not on the sharing a builder produced *)
let test_sim_memo_ignores_sharing () =
  let w = tiny () in
  let mode = "event" in
  let shared = { Config.base with Config.name = mode; sim_mode = Some mode } in
  let copied =
    { shared with Config.sim_mode = Some (String.init (String.length mode) (String.get mode)) }
  in
  Alcotest.(check bool) "the configs marshal apart with sharing" true
    (Marshal.to_string shared [] <> Marshal.to_string copied []);
  let spec config =
    { Experiment.workload = w; config; nprocs = 1; version = Experiment.Base }
  in
  Alcotest.(check string) "one memo key" (Experiment.spec_key (spec shared))
    (Experiment.spec_key (spec copied));
  Experiment.clear_caches ();
  let a = Experiment.simulate_cached w shared ~nprocs:1 w.Workload.program in
  let b = Experiment.simulate_cached w copied ~nprocs:1 w.Workload.program in
  Alcotest.(check int) "one harness-sim entry" 1
    (List.assoc "harness-sim" (Memclust_util.Analysis_cache.registered ()));
  Alcotest.(check bool) "the same result" true (a == b)

let test_l2_scaling_applied () =
  let w = tiny () in
  (* scaled config: the workload's small L2 makes the kernel miss more than
     with the default 64KB *)
  let o =
    Experiment.execute_cached
      {
        Experiment.workload = w;
        config = Config.base;
        nprocs = 1;
        version = Experiment.Base;
      }
  in
  Alcotest.(check bool) "misses observed" true (o.Experiment.result.Machine.l2_misses > 0)

let test_figures_registry () =
  List.iter
    (fun id ->
      match Figures.by_id id with
      | Some _ -> ()
      | None -> Alcotest.failf "missing experiment %s" id)
    Figures.all_ids;
  Alcotest.(check bool) "unknown id" true (Figures.by_id "nope" = None);
  Alcotest.(check int) "all nine paper artifacts covered" 9
    (List.length Figures.paper_ids);
  Alcotest.(check bool) "extensions registered" true
    (List.length Figures.extension_ids >= 2)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_table1_contents () =
  let s = Figures.table1 () in
  Alcotest.(check bool) "names base" true (contains ~sub:"base-500MHz" s);
  Alcotest.(check bool) "shows window" true (contains ~sub:"window 64" s);
  Alcotest.(check bool) "shows exemplar" true (contains ~sub:"exemplar-like" s)

let test_table2_contents () =
  let s = Figures.table2 () in
  List.iter
    (fun (w : Workload.t) ->
      Alcotest.(check bool) (w.Workload.name ^ " listed") true
        (contains ~sub:w.Workload.name s))
    (Registry.latbench () :: Registry.applications ())


let test_prefetched_versions () =
  let w = tiny () in
  let spec version =
    { Experiment.workload = w; config = Config.base; nprocs = 1; version }
  in
  let pf = Experiment.execute_cached (spec Experiment.Prefetched) in
  Alcotest.(check bool) "hints were issued" true
    (pf.Experiment.result.Machine.prefetches > 0);
  Alcotest.(check bool) "no cluster report" true
    (pf.Experiment.cluster_report = None);
  let both = Experiment.execute_cached (spec Experiment.Clustered_prefetched) in
  Alcotest.(check bool) "clustered and hinted" true
    (both.Experiment.result.Machine.prefetches > 0
    && both.Experiment.cluster_report <> None)

let test_transform_respects_max_procs () =
  (* workload with a 16-iteration distributed loop and mp_procs = 8:
     the driver must keep at least 8 chunks (factor <= 2) *)
  let n = 16 in
  let cols = 512 in
  let program =
    let open Builder in
    program "narrow"
      ~arrays:[ array_decl "a" (Stdlib.( * ) n cols); array_decl "s" n ]
      [
        loop ~parallel:true "j" (cst 0) (cst n)
          [
            loop "i" (cst 0) (cst cols)
              [
                store (aref "s" (ix "j"))
                  (arr "s" (ix "j") + arr "a" (idx2 ~cols (ix "j") (ix "i")));
              ];
          ];
      ]
  in
  let w =
    { Workload.name = "narrow"; program; init = (fun _ -> ()); l2_bytes = 16 * 1024;
      mp_procs = 8; description = "" }
  in
  let _, report = Experiment.transform Config.base w in
  List.iter
    (fun nest ->
      List.iter
        (function
          | Memclust_cluster.Driver.Unroll_jam { factor; _ } ->
              Alcotest.(check bool) "factor preserves 8 chunks" true (factor <= 2)
          | _ -> ())
        nest.Memclust_cluster.Driver.actions)
    report.Memclust_cluster.Driver.nests

(* The P_m profiler runs only for an inner construct whose scope holds a
   leading irregular reference (Eq. 3): workloads without one never
   profile, and the others profile only the candidates of such nests,
   each cut after the nest being evaluated. The counts are distinct
   [driver-profile-pm] entries after clustering one workload from empty
   caches: Em3d's first nest is profiled without its second, so its
   candidates and the program they leave to the second nest are profiled
   apart. *)
let test_profiles_only_irregular () =
  let profiles (w : Workload.t) =
    Experiment.clear_caches ();
    ignore (Experiment.transform Config.base w);
    List.assoc "driver-profile-pm" (Memclust_util.Analysis_cache.registered ())
  in
  let pinned =
    [
      ("Latbench", 3); ("Em3d", 7); ("Erlebacher", 0); ("FFT", 0); ("LU", 0);
      ("Mp3d", 1); ("MST", 5); ("Ocean", 0);
    ]
  in
  Alcotest.(check (list (pair string int)))
    "profiles per workload" pinned
    (List.map (fun (w : Workload.t) -> (w.Workload.name, profiles w)) (Registry.small ()))

let () =
  Alcotest.run "harness"
    [
      ( "experiment",
        [
          Alcotest.test_case "machine of config" `Quick test_machine_of_config;
          Alcotest.test_case "base vs clustered" `Quick test_execute_base_vs_clustered;
          Alcotest.test_case "multiprocessor" `Quick test_execute_multiproc;
          Alcotest.test_case "memoization" `Quick test_cached_is_stable;
          Alcotest.test_case "execute_all runs each point once" `Quick
            test_execute_all_runs_once;
          Alcotest.test_case "execute_all does not retry Error.Error" `Quick
            test_execute_all_no_retry_on_error;
          Alcotest.test_case "l2 scaling" `Quick test_l2_scaling_applied;
          Alcotest.test_case "prefetched versions" `Quick test_prefetched_versions;
          Alcotest.test_case "max_procs cap" `Quick test_transform_respects_max_procs;
          Alcotest.test_case "memo keys on config contents" `Quick
            test_cached_keys_on_config_contents;
          Alcotest.test_case "sim memo ignores config sharing" `Quick
            test_sim_memo_ignores_sharing;
        ] );
      ( "figures",
        [
          Alcotest.test_case "registry" `Quick test_figures_registry;
          Alcotest.test_case "table1" `Quick test_table1_contents;
          Alcotest.test_case "table2" `Quick test_table2_contents;
        ] );
      ( "profile-pm",
        [
          Alcotest.test_case "regular programs never profile" `Quick
            test_profiles_only_irregular;
        ] );
    ]
