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

(* [Figures.sweep] is X3's and [repro sweep]'s one grid: rows in grid
   order (mshrs outer, lines inner), each outcome the one [execute_cached]
   gives for the same spec *)
let test_sweep_grid () =
  let w = List.hd (Registry.small ()) in
  Alcotest.(check string) "small Latbench" "Latbench" w.Workload.name;
  match Figures.sweep ~mshrs:[ 1; 2 ] ~lines:[ 32; 64 ] [ (w, 1) ] with
  | [ (w', rows) ] ->
      Alcotest.(check bool) "the workload swept" true (w' == w);
      Alcotest.(check (list (pair int int)))
        "grid order" [ (1, 32); (1, 64); (2, 32); (2, 64) ]
        (List.map (fun r -> (r.Figures.mshrs, r.Figures.line)) rows);
      List.iter
        (fun r ->
          let config =
            Config.base |> Config.with_mshrs r.Figures.mshrs |> Config.with_line r.Figures.line
          in
          List.iter
            (fun (version, (o : Experiment.outcome)) ->
              let want =
                Experiment.execute_cached
                  { Experiment.workload = w; config; nprocs = 1; version }
              in
              let what = Experiment.spec_key want.Experiment.spec in
              Alcotest.(check string) what what (Experiment.spec_key o.Experiment.spec);
              Alcotest.(check string) (what ^ " result")
                (Memclust_util.Analysis_cache.content_digest want.Experiment.result)
                (Memclust_util.Analysis_cache.content_digest o.Experiment.result);
              Alcotest.(check string) (what ^ " program")
                (Memclust_util.Analysis_cache.content_digest want.Experiment.program)
                (Memclust_util.Analysis_cache.content_digest o.Experiment.program))
            [ (Experiment.Base, r.Figures.base); (Experiment.Clustered, r.Figures.clustered) ])
        rows
  | groups -> Alcotest.failf "one group expected, got %d" (List.length groups)

let cluster_entries () =
  List.assoc "harness-cluster" (Memclust_util.Analysis_cache.registered ())

(* the ablation's variants: a pass list or a scheduler alone makes a
   distinct point with its own clustering *)
let test_ablated_keys () =
  let open Memclust_cluster in
  let w = tiny () in
  let spec version = { Experiment.workload = w; config = Config.base; nprocs = 1; version } in
  let all = Driver.pass_names in
  let variants =
    [
      Experiment.Ablated { passes = all; scheduler = Driver.Pack_misses };
      Experiment.Ablated
        { passes = List.filter (fun n -> n <> "schedule") all; scheduler = Driver.Pack_misses };
      Experiment.Ablated { passes = all; scheduler = Driver.Balanced };
    ]
  in
  let keys = List.map (fun v -> Experiment.spec_key (spec v)) variants in
  Alcotest.(check int) "distinct spec keys" 3
    (List.length (List.sort_uniq String.compare keys));
  Experiment.clear_caches ();
  List.iter (fun v -> ignore (Experiment.execute_cached (spec v))) variants;
  Alcotest.(check int) "one clustering each" 3 (cluster_entries ())

(* the default pipeline, named or not, is the Clustered version's
   clustering: one [harness-cluster] entry *)
let test_default_pipeline_shared () =
  let open Memclust_cluster in
  let w = tiny () in
  Experiment.clear_caches ();
  let c =
    Experiment.execute_cached
      { Experiment.workload = w; config = Config.base; nprocs = 1; version = Experiment.Clustered }
  in
  let p, _ = Experiment.transform ~passes:Driver.pass_names ~scheduler:Driver.Pack_misses Config.base w in
  let q, _ = Experiment.transform ~passes:(List.rev Driver.pass_names) Config.base w in
  Alcotest.(check int) "one harness-cluster entry" 1 (cluster_entries ());
  Alcotest.(check bool) "the Clustered program" true (p == c.Experiment.program && q == p)

(* The small and the full Latbench share a name: the cluster memo keys on
   the source program's contents too, so each gets the clustering it gets
   alone, whichever is clustered first *)
let test_cluster_memo_keys_on_program () =
  let small = List.hd (Registry.small ()) and full = Registry.latbench () in
  Alcotest.(check string) "one name" full.Workload.name small.Workload.name;
  let clustered w =
    Memclust_util.Analysis_cache.content_digest (fst (Experiment.transform Config.base w))
  in
  let small_first = clustered small in
  let full_second = clustered full in
  Experiment.clear_caches ();
  let full_first = clustered full in
  let small_second = clustered small in
  Alcotest.(check bool) "two programs" true (small_first <> full_first);
  Alcotest.(check string) "small Latbench's own" small_first small_second;
  Alcotest.(check string) "full Latbench's own" full_first full_second

(* ---------------------- sim runs reused across lp ---------------------- *)

let digest = Memclust_util.Analysis_cache.content_digest

let caps (cfg : Config.t) = List.map (fun l -> l.Config.mshrs) cfg.Config.levels

(* the last non-empty of a run's [lp] + 1 total-occupancy buckets *)
let peak ~lp (r : Machine.result) =
  let rec go k =
    if k = 0 || Memclust_util.Stats.Histogram.bucket r.Machine.total_mshr_hist k > 0.0
    then k
    else go (k - 1)
  in
  go lp

(* one core's random trace, after tools/sim_digest.ml: loads, stores and
   prefetches over 256 lines, with dependences near and far; [mem] of 16
   instructions, on average, access memory *)
let gen_core rand ~mem ~barriers =
  let open Memclust_codegen in
  let int n = Random.State.int rand n in
  let t = Trace.create () in
  let dep i =
    let d = match int 6 with 0 | 1 -> -1 | 2 | 3 | 4 -> i - 1 - int 8 | _ -> i - 9 - int 92 in
    if d < 0 then -1 else d
  in
  let addr () = 0x40000 + (int 256 * 64) + (int 8 * 8) in
  let push kind aux =
    let i = Trace.length t in
    ignore (Trace.push t ~kind ~aux ~dep1:(dep i) ~dep2:(dep i) ~ref_:0)
  in
  for b = 0 to barriers do
    if b > 0 then push Trace.Barrier_op b;
    for _ = 1 to int 121 do
      if int 16 < mem then
        match int 6 with
        | 0 | 1 | 2 -> push Trace.Load (addr ())
        | 3 | 4 -> push Trace.Store (addr ())
        | _ -> push Trace.Prefetch_op (addr ())
      else
        match int 4 with
        | 0 | 1 -> push Trace.Int_op 1
        | 2 -> push Trace.Fp_op (1 + int 6)
        | _ -> push Trace.Branch 1
    done
  done;
  t

(* A random trace on a random machine at random per-level capacities:
   wherever [reuse_run] offers the run at capacities C', it reads as a
   fresh run at C' does, and it does offer it at every C' in
   [max 1 p, 16] when the peak p stayed below the run's lp *)
let prop_reuse_exact =
  QCheck.Test.make ~name:"a reused run equals a fresh one" ~count:80 QCheck.small_nat
    (fun seed ->
      let rand = Random.State.make [| seed |] in
      let int n = Random.State.int rand n in
      let nprocs = 1 + int 4 and barriers = int 3 and mem = 1 + int 5 in
      let lowered =
        {
          Memclust_codegen.Lower.traces =
            Array.init nprocs (fun _ -> gen_core rand ~mem ~barriers);
          barriers;
        }
      in
      let machine =
        match int 4 with
        | 0 -> Config.base
        | 1 -> Config.three_level
        | 2 -> Config.exemplar_like
        | _ -> Config.with_faults (Faults.scaled ~seed 0.3) Config.base
      in
      let run cfg =
        Machine.run cfg ~mode:Machine.Event ~home:(fun a -> (a lsr 6) mod nprocs) lowered
      in
      (* small files saturate, large ones often do not; some levels get
         larger files than the machine's lp *)
      let cap = if int 2 = 0 then 1 + int 4 else 8 + int 9 in
      let ran =
        Config.with_levels
          (List.map
             (fun l -> { l with Config.mshrs = cap + (if int 3 = 0 then int 4 else 0) })
             machine.Config.levels)
          machine
      in
      let r = run ran in
      let lp = Config.lp ran in
      let p = peak ~lp r in
      List.iter
        (fun c ->
          let at = Config.with_mshrs c machine in
          match Experiment.reuse_run (caps ran) r (caps at) with
          | Some r' ->
              if digest r' <> digest (run at) then
                QCheck.Test.fail_reportf "seed %d: the run at lp %d (peak %d) reused at %d differs"
                  seed lp p c
          | None ->
              if p < lp && c >= Int.max 1 p then
                QCheck.Test.fail_reportf "seed %d: the run at lp %d (peak %d) not reused at %d"
                  seed lp p c)
        (List.init 16 (fun i -> i + 1));
      true)

let base_at (w : Workload.t) lp =
  { Experiment.workload = w; config = Config.with_mshrs lp Config.base; nprocs = 1;
    version = Experiment.Base }

(* a run whose peak reached its lp may have been refused an MSHR: the
   small Latbench at lp 1 is simulated again at lp 2 *)
let test_full_run_not_reused () =
  let w = List.hd (Registry.small ()) in
  Experiment.clear_caches ();
  let one = (Experiment.execute_cached (base_at w 1)).Experiment.result in
  Alcotest.(check int) "lp 1 saturates" 1 (peak ~lp:1 one);
  Alcotest.(check bool) "the rule refuses it" true
    (Experiment.reuse_run [ 1; 1 ] one [ 2; 2 ] = None);
  let two = (Experiment.execute_cached (base_at w 2)).Experiment.result in
  Alcotest.(check bool) "simulated afresh" true (two.Machine.per_proc != one.Machine.per_proc);
  Alcotest.(check bool) "lp matters" true (two.Machine.cycles <> one.Machine.cycles);
  Experiment.clear_caches ();
  let cold = (Experiment.execute_cached (base_at w 2)).Experiment.result in
  Alcotest.(check string) "the cold lp-2 run" (digest cold) (digest two)

(* a run that never filled its files serves a smaller lp: lp 16, then
   lp 4, is one simulation under one harness-sim key, and reads as a
   cold lp-4 run *)
let test_unfilled_run_reused () =
  let w = List.hd (Registry.small ()) in
  Experiment.clear_caches ();
  let sixteen = (Experiment.execute_cached (base_at w 16)).Experiment.result in
  Alcotest.(check bool) "peak at most 4" true (peak ~lp:16 sixteen <= 4);
  let four = (Experiment.execute_cached (base_at w 4)).Experiment.result in
  Alcotest.(check bool) "one simulation" true (four.Machine.per_proc == sixteen.Machine.per_proc);
  Alcotest.(check int) "one harness-sim key" 1
    (List.assoc "harness-sim" (Memclust_util.Analysis_cache.registered ()));
  let again = (Experiment.execute_cached (base_at w 4)).Experiment.result in
  Alcotest.(check bool) "a repeat returns the stored record" true (again == four);
  Experiment.clear_caches ();
  let cold = (Experiment.execute_cached (base_at w 4)).Experiment.result in
  Alcotest.(check string) "the cold lp-4 run" (digest cold) (digest four)

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
          Alcotest.test_case "ablation variants keyed apart" `Quick test_ablated_keys;
          Alcotest.test_case "default pipeline shares Clustered's memo" `Quick
            test_default_pipeline_shared;
          Alcotest.test_case "cluster memo keys on the program" `Quick
            test_cluster_memo_keys_on_program;
        ] );
      ( "sim reuse",
        [
          QCheck_alcotest.to_alcotest prop_reuse_exact;
          Alcotest.test_case "a run that filled its MSHRs is not reused" `Quick
            test_full_run_not_reused;
          Alcotest.test_case "a run that never filled them is" `Quick
            test_unfilled_run_reused;
        ] );
      ( "figures",
        [
          Alcotest.test_case "registry" `Quick test_figures_registry;
          Alcotest.test_case "table1" `Quick test_table1_contents;
          Alcotest.test_case "table2" `Quick test_table2_contents;
          Alcotest.test_case "sweep grid" `Quick test_sweep_grid;
        ] );
      ( "profile-pm",
        [
          Alcotest.test_case "regular programs never profile" `Quick
            test_profiles_only_irregular;
        ] );
    ]
