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
   distinct point with its own clustering, all three under the
   workload's one [harness-cluster] entry *)
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
  let reports =
    List.map (fun v -> Option.get (Experiment.execute_cached (spec v)).Experiment.cluster_report)
      variants
  in
  Alcotest.(check int) "one harness-cluster entry" 1 (cluster_entries ());
  let distinct = function
    | [ a; b; c ] -> a != b && b != c && a != c
    | _ -> false
  in
  Alcotest.(check bool) "one clustering each" true (distinct reports);
  Alcotest.(check bool) "each stored" true
    (List.for_all2
       (fun v r -> Option.get (Experiment.execute_cached (spec v)).Experiment.cluster_report == r)
       variants reports)

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
   instructions, on average, access memory. [`Stores] and [`Prefetches]
   make every memory access a store or a prefetch, so full MSHR files
   refuse only write-buffer drains or only prefetches *)
let gen_core ?(kinds = `All) rand ~mem ~barriers =
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
        match (kinds, int 6) with
        | `Stores, _ | `All, (3 | 4) -> push Trace.Store (addr ())
        | `Prefetches, _ | `All, 5 -> push Trace.Prefetch_op (addr ())
        | `All, _ -> push Trace.Load (addr ())
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
   fresh run at C' does, and it does offer it at every C' in [max 1 p,
   16] when the run was refused no allocation. A peak p below the run's
   lp implies no refusal (the rule that came before admits no more).
   One trace in four stores only and one in four prefetches only, so
   runs whose only refusals are write-buffer drains or prefetches come
   up: a count that missed those would offer them, and they differ
   from fresh runs. *)
let prop_reuse_exact =
  QCheck.Test.make ~name:"a reused run equals a fresh one" ~count:80 QCheck.small_nat
    (fun seed ->
      let rand = Random.State.make [| seed |] in
      let int n = Random.State.int rand n in
      let nprocs = 1 + int 4 and barriers = int 3 and mem = 1 + int 5 in
      let kinds = match int 4 with 0 -> `Stores | 1 -> `Prefetches | _ -> `All in
      let lowered =
        {
          Memclust_codegen.Lower.traces =
            Array.init nprocs (fun _ -> gen_core ~kinds rand ~mem ~barriers);
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
        Machine.run_with_refusals cfg ~mode:Machine.Event
          ~home:(fun a -> (a lsr 6) mod nprocs) lowered
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
      let r, refusals = run ran in
      let lp = Config.lp ran in
      let p = peak ~lp r in
      if p < lp && refusals > 0 then
        QCheck.Test.fail_reportf "seed %d: peak %d below lp %d, yet %d refusals" seed p lp
          refusals;
      (* event mode skips a sleeping core's repeated attempts, so only
         whether the count is 0 must agree with cycle mode *)
      let _, cycle_refusals =
        Machine.run_with_refusals ran ~mode:Machine.Cycle ~home:(fun a -> (a lsr 6) mod nprocs)
          lowered
      in
      if (refusals = 0) <> (cycle_refusals = 0) then
        QCheck.Test.fail_reportf "seed %d: %d refusals in event mode, %d in cycle mode" seed
          refusals cycle_refusals;
      List.iter
        (fun c ->
          let at = Config.with_mshrs c machine in
          match Experiment.reuse_run ~refusals (caps ran) r (caps at) with
          | Some r' ->
              if digest r' <> digest (fst (run at)) then
                QCheck.Test.fail_reportf
                  "seed %d: the run at lp %d (peak %d, %d refusals) reused at %d differs" seed lp
                  p refusals c
          | None ->
              if refusals = 0 && c >= Int.max 1 p then
                QCheck.Test.fail_reportf "seed %d: the run at lp %d (peak %d) not reused at %d"
                  seed lp p c)
        (List.init 16 (fun i -> i + 1));
      true)

(* A core that only stores, or only prefetches, to 64 distinct lines:
   at lp 1 its full file refuses drains, or drops prefetches, and never
   a read. Counting those refusals is what keeps the lp-1 run from
   serving lp 2, which reads differently. *)
let test_drain_and_prefetch_refusals () =
  List.iter
    (fun (what, kind) ->
      let t = Memclust_codegen.Trace.create () in
      for i = 0 to 63 do
        ignore (Memclust_codegen.Trace.push t ~kind ~aux:(0x40000 + (i * 64)) ~dep1:(-1)
                  ~dep2:(-1) ~ref_:0)
      done;
      let lowered = { Memclust_codegen.Lower.traces = [| t |]; barriers = 0 } in
      let run lp =
        Machine.run_with_refusals (Config.with_mshrs lp Config.base) ~home:(fun _ -> 0) lowered
      in
      let one, refusals = run 1 and two, _ = run 2 in
      Alcotest.(check int) (what ^ ": no read refused") 0 one.Machine.mshr_full_events;
      Alcotest.(check bool) (what ^ ": refused at lp 1") true (refusals > 0);
      Alcotest.(check bool) (what ^ ": lp 2 reads differently") true (digest one <> digest two);
      Alcotest.(check bool) (what ^ ": not reused") true
        (Experiment.reuse_run ~refusals [ 1; 1 ] one [ 2; 2 ] = None))
    [ ("stores", Memclust_codegen.Trace.Store); ("prefetches", Memclust_codegen.Trace.Prefetch_op) ]

let base_at (w : Workload.t) lp =
  { Experiment.workload = w; config = Config.with_mshrs lp Config.base; nprocs = 1;
    version = Experiment.Base }

(* a run that was refused an MSHR is not reused: the small Latbench at
   lp 1 is simulated again at lp 2 *)
let test_full_run_not_reused () =
  let w = List.hd (Registry.small ()) in
  Experiment.clear_caches ();
  let one = (Experiment.execute_cached (base_at w 1)).Experiment.result in
  Alcotest.(check int) "lp 1 saturates" 1 (peak ~lp:1 one);
  let refusals =
    let program = Program.renumber w.Workload.program in
    let lowered, home = Experiment.lowered_for w ~nprocs:1 program in
    let cfg = Config.with_l2 w.Workload.l2_bytes (base_at w 1).Experiment.config in
    snd (Machine.run_with_refusals cfg ~home lowered)
  in
  Alcotest.(check bool) "refused at lp 1" true (refusals > 0);
  Alcotest.(check bool) "the rule refuses it" true
    (Experiment.reuse_run ~refusals [ 1; 1 ] one [ 2; 2 ] = None);
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

(* a run that filled its files but was refused nothing serves a larger
   lp: the small Latbench base peaks at 2 of 2 MSHRs, and lp 4 reads
   that run *)
let test_filled_unrefused_run_reused () =
  let w = List.hd (Registry.small ()) in
  Experiment.clear_caches ();
  let two = (Experiment.execute_cached (base_at w 2)).Experiment.result in
  Alcotest.(check int) "lp 2 fills" 2 (peak ~lp:2 two);
  let four = (Experiment.execute_cached (base_at w 4)).Experiment.result in
  Alcotest.(check bool) "one simulation" true (four.Machine.per_proc == two.Machine.per_proc);
  Experiment.clear_caches ();
  let cold = (Experiment.execute_cached (base_at w 4)).Experiment.result in
  Alcotest.(check string) "the cold lp-4 run" (digest cold) (digest four)

(* ------------- memo keys on what the environment resolves ------------- *)

(* [f ()] with the variable set to [v], restored after (an empty value
   reads as unset) *)
let with_env var v f =
  let old = Option.value ~default:"" (Sys.getenv_opt var) in
  Unix.putenv var v;
  Fun.protect ~finally:(fun () -> Unix.putenv var old) f

(* a fault plan from MEMCLUST_FAULTS is part of the simulation: a warm
   memo gives the run a cold one does *)
let test_sim_memo_keys_on_env_faults () =
  let w = List.hd (Registry.small ()) in
  let spec = base_at w 4 in
  Experiment.clear_caches ();
  let clean = (Experiment.execute_cached spec).Experiment.result in
  let warm =
    with_env "MEMCLUST_FAULTS" "7:0.3" (fun () ->
        (Experiment.execute_cached spec).Experiment.result)
  in
  Experiment.clear_caches ();
  let cold =
    with_env "MEMCLUST_FAULTS" "7:0.3" (fun () ->
        (Experiment.execute_cached spec).Experiment.result)
  in
  Alcotest.(check bool) "the faults change the run" true (clean.Machine.cycles <> cold.Machine.cycles);
  Alcotest.(check string) "warm memo = cold run" (digest cold) (digest warm)

(* a chaos plan from MEMCLUST_FAIL_PASS is part of the clustering: a warm
   memo degrades as a cold one does *)
let test_cluster_memo_keys_on_env_chaos () =
  let w = List.hd (Registry.small ()) in
  let degraded () =
    Memclust_cluster.Pass.Pipeline.degraded_passes
      (snd (Experiment.transform Config.base w)).Memclust_cluster.Driver.trace
    |> List.map fst
  in
  Experiment.clear_caches ();
  Alcotest.(check (list string)) "clean" [] (degraded ());
  let warm = with_env "MEMCLUST_FAIL_PASS" "unroll-jam" degraded in
  Experiment.clear_caches ();
  let cold = with_env "MEMCLUST_FAIL_PASS" "unroll-jam" degraded in
  Alcotest.(check (list string)) "cold run degrades" [ "unroll-jam" ] cold;
  Alcotest.(check (list string)) "warm memo = cold run" cold warm;
  Alcotest.(check (list string)) "clean again" [] (degraded ())

(* ---------------- one clustering source per program ---------------- *)

open Memclust_cluster

(* a report whose trace has its times zeroed: what two runs of one
   clustering agree on *)
let untimed (r : Driver.report) =
  let t = r.Driver.trace in
  { r with
    Driver.trace =
      { t with
        Pass.Pipeline.total_ms = 0.0; check_ms = 0.0; profile_ms = 0.0;
        entries = List.map (fun e -> { e with Pass.Pipeline.wall_ms = 0.0 }) t.Pass.Pipeline.entries } }

let clustering_digest (p, r) = digest (p, untimed r)

let lp_config (w : Workload.t) lp = Config.with_l2 w.Workload.l2_bytes (Config.with_mshrs lp Config.base)

(* what [Experiment.transform] must give: [Driver.run] with a source of
   its own *)
let fresh_transform (w : Workload.t) cfg =
  let machine =
    { (Experiment.machine_of_config cfg) with Machine_model.max_procs = max 1 w.Workload.mp_procs }
  in
  Driver.run ~options:{ Driver.default_options with machine } ~init:w.Workload.init w.Workload.program

let lps = [ 1; 2; 4; 8; 16 ]

(* The programs whose clusterings profile P_m: the small Latbench and
   MST, and Em3d, whose final store depends on its initial one
   (out[n] -= ...), so a reference run over a store a profile has
   written reads differently *)
let profiled = [ "Latbench"; "MST"; "Em3d" ]

(* Those programs clustered at lp 1-16, ascending and descending,
   through the harness (one shared source) and by fresh [Driver.run]s
   in the same order from the same cleared caches (so the P_m memo hits
   alike): the same programs, reports and untimed traces. Then the small
   and the full Latbench, which share a name: each gets its own
   source. *)
let test_shared_source_equals_fresh () =
  let small = Registry.small () in
  let by_name n = List.find (fun (w : Workload.t) -> String.equal w.Workload.name n) small in
  let compare_runs what points =
    Experiment.clear_caches ();
    let fresh = List.map (fun (w, cfg) -> clustering_digest (fresh_transform w cfg)) points in
    Experiment.clear_caches ();
    List.iter2
      (fun (w, cfg) want ->
        Alcotest.(check string)
          (Printf.sprintf "%s: %s at lp %d" what w.Workload.name (Config.lp cfg))
          want
          (clustering_digest (Experiment.transform cfg w)))
      points fresh
  in
  List.iter
    (fun name ->
      let w = by_name name in
      compare_runs "ascending" (List.map (fun lp -> (w, lp_config w lp)) lps);
      compare_runs "descending" (List.rev_map (fun lp -> (w, lp_config w lp)) lps))
    profiled;
  let full = Registry.latbench () in
  compare_runs "one name, two programs"
    [ (by_name "Latbench", lp_config full 4); (full, lp_config full 4) ]

(* Across those clusterings the source's store is built once ([init]
   runs once), and its digest and reference run are computed once: the
   values the first clustering that needed them left stay in place. The
   store is still the initialized one (every run copied it), and the
   reference is the source program's run over it. *)
let test_source_computed_once () =
  List.iter
    (fun name ->
      let w0 = List.find (fun (w : Workload.t) -> String.equal w.Workload.name name) (Registry.small ()) in
      let initialized () =
        let d = Data.create w0.Workload.program in
        w0.Workload.init d;
        d
      in
      let inits = Atomic.make 0 in
      let w = { w0 with Workload.init = (fun d -> Atomic.incr inits; w0.Workload.init d) } in
      Experiment.clear_caches ();
      let s = Experiment.source w in
      let first = ref None in
      List.iter
        (fun lp ->
          let p, _ = Experiment.transform (lp_config w lp) w in
          (* Latbench and MST ship their source unchanged at lp 1, so the
             guard runs nothing for them there (Em3d's passes still
             change it) *)
          if lp = 1 && Option.is_none !first && not (String.equal name "Em3d") then begin
            Alcotest.(check string) (name ^ ": lp 1 ships the source")
              (digest (Program.renumber w.Workload.program)) (digest p);
            Alcotest.(check bool) (name ^ ": no reference run for it") true
              (Option.is_none (Memclust_util.Once.peek s.Pass.reference))
          end;
          match (!first, Memclust_util.Once.peek s.Pass.digest, Memclust_util.Once.peek s.Pass.reference) with
          | None, Some d, Some r -> first := Some (d, r)
          | _ -> ())
        (lps @ List.rev lps);
      Alcotest.(check bool) (name ^ ": one source") true (Experiment.source w == s);
      Alcotest.(check int) (name ^ ": one store") 1 (Atomic.get inits);
      match (!first, Memclust_util.Once.peek s.Pass.digest, Memclust_util.Once.peek s.Pass.reference) with
      | Some (d, r), Some d', Some r' ->
          Alcotest.(check bool) (name ^ ": one digest") true (d == d');
          Alcotest.(check bool) (name ^ ": one reference run") true (r == r');
          let final = initialized () in
          Exec.run (Program.renumber w.Workload.program) final;
          Alcotest.(check bool) (name ^ ": the source's run") true
            (match r with Some r -> Data.equal r final | None -> false);
          Alcotest.(check bool) (name ^ ": the store as initialized") true
            (Data.equal (Memclust_util.Once.force s.Pass.store) (initialized ()))
      | _ -> Alcotest.failf "%s: digest or reference never computed" name)
    profiled

(* The lp points of both programs, base and clustered, on a pool of two
   domains (sharing each source across domains) read as they do run
   inline one after another *)
let test_pooled_equals_inline () =
  let specs =
    List.concat_map
      (fun (w : Workload.t) ->
        List.concat_map
          (fun lp ->
            List.map
              (fun version ->
                { Experiment.workload = w; config = Config.with_mshrs lp Config.base; nprocs = 1; version })
              [ Experiment.Base; Experiment.Clustered ])
          lps)
      (List.filter
         (fun (w : Workload.t) -> List.mem w.Workload.name [ "Latbench"; "MST" ])
         (Registry.small ()))
  in
  let outcome_digest (o : Experiment.outcome) =
    digest
      ( Experiment.spec_key o.Experiment.spec,
        o.Experiment.result,
        o.Experiment.program,
        Option.map (fun r -> (untimed r).Driver.nests) o.Experiment.cluster_report )
  in
  Experiment.clear_caches ();
  let inline = List.map (fun s -> outcome_digest (Experiment.execute_cached s)) specs in
  Experiment.clear_caches ();
  let pool = Memclust_util.Domain_pool.create ~domains:1 () in
  let pooled =
    Fun.protect ~finally:(fun () -> Memclust_util.Domain_pool.shutdown pool) (fun () ->
        Memclust_util.Domain_pool.map_result pool Experiment.execute_cached specs)
  in
  List.iter2
    (fun want -> function
      | Ok o -> Alcotest.(check string) (Experiment.spec_key o.Experiment.spec) want (outcome_digest o)
      | Error e -> Alcotest.fail (Memclust_util.Error.to_string e))
    inline pooled;
  Experiment.clear_caches ();
  let get = Experiment.execute_all specs in
  List.iter2
    (fun s want -> Alcotest.(check string) (Experiment.spec_key s) want (outcome_digest (get s)))
    specs inline

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
          Alcotest.test_case "a filled run that was refused nothing is" `Quick
            test_filled_unrefused_run_reused;
          Alcotest.test_case "drain and prefetch refusals count" `Quick
            test_drain_and_prefetch_refusals;
        ] );
      ( "env memos",
        [
          Alcotest.test_case "sim memo keys on MEMCLUST_FAULTS" `Quick
            test_sim_memo_keys_on_env_faults;
          Alcotest.test_case "cluster memo keys on MEMCLUST_FAIL_PASS" `Quick
            test_cluster_memo_keys_on_env_chaos;
        ] );
      ( "sources",
        [
          Alcotest.test_case "clustering through it equals a fresh run" `Quick
            test_shared_source_equals_fresh;
          Alcotest.test_case "store, digest and reference computed once" `Quick
            test_source_computed_once;
          Alcotest.test_case "pooled equals inline" `Quick test_pooled_equals_inline;
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
