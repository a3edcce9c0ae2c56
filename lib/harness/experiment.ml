open Memclust_util
open Memclust_ir
open Memclust_cluster
open Memclust_codegen
open Memclust_sim
open Memclust_workloads

type version = Base | Clustered | Prefetched | Clustered_prefetched
  | Ablated of { passes : string list; scheduler : Driver.scheduler }

type spec = {
  workload : Workload.t;
  config : Config.t;
  nprocs : int;
  version : version;
}

type outcome = {
  spec : spec;
  result : Machine.result;
  cluster_report : Driver.report option;
  program : Ast.program;
}

let machine_of_config (cfg : Config.t) =
  {
    Machine_model.window = cfg.Config.window;
    (* the effective outstanding-miss bound: the smallest MSHR file in
       the hierarchy stack *)
    mshrs = Config.lp cfg;
    line_size = Config.line cfg;
    max_unroll = 16;
    max_procs = 16;
  }

(* Clustering is deterministic: memoize per (workload, analysis machine,
   pipeline) so the multiprocessor and uniprocessor runs, and every
   caller that names the default pipeline, share one transformation.

   All memo tables are [Analysis_cache]s: mutex-guarded (shared across the
   domains of the experiment pool) and bounded, so long bench sweeps can't
   grow memory without bound. Computation runs outside the lock: two
   domains racing on the same key may duplicate (deterministic) work, but
   [execute_all] deduplicates its spec list so this stays rare. *)
let cluster_cache : (Ast.program * Driver.report) Analysis_cache.t =
  Analysis_cache.create ~cap:128 ~name:"harness-cluster" ()

(* the driver runs passes in pipeline order whatever order they are named in *)
let pipeline_key passes scheduler =
  Printf.sprintf "%s/%s"
    (String.concat "," (List.sort_uniq String.compare passes))
    (match scheduler with Driver.Pack_misses -> "pack" | Driver.Balanced -> "balanced")

let transform ?(passes = Driver.pass_names)
    ?(scheduler = Driver.default_options.Driver.scheduler) (cfg : Config.t)
    (w : Workload.t) =
  let machine =
    { (machine_of_config cfg) with
      Machine_model.max_procs = max 1 w.Workload.mp_procs
    }
  in
  (* key on the analysis-side machine projection, not the config name:
     configs that differ only in latencies/clock (e.g. the 1 GHz point)
     share one clustering; and on the source program's contents, since
     two workloads can share a name (Registry.small's and the full
     Latbench) *)
  let key =
    Printf.sprintf "%s|%s@w%d.m%d.l%d.p%d|%s" w.Workload.name
      (Analysis_cache.content_digest w.Workload.program)
      machine.Machine_model.window machine.Machine_model.mshrs
      machine.Machine_model.line_size machine.Machine_model.max_procs
      (pipeline_key passes scheduler)
  in
  Analysis_cache.find_or_compute cluster_cache key (fun () ->
      let options = { Driver.default_options with machine; scheduler } in
      Driver.run ~options ~init:w.Workload.init ~only:passes w.Workload.program)

let scaled_config (cfg : Config.t) (w : Workload.t) =
  (* single-level hierarchies (Exemplar) keep their cache; multi-level
     stacks scale the memory-side level per the workload class *)
  if Config.depth cfg >= 2 then Config.with_l2 w.Workload.l2_bytes cfg else cfg

(* Lowered traces depend only on (program, workload init, nprocs) — not on
   the simulated machine — so one lowering serves every config that
   simulates the same program. Keyed by a structural digest of the
   program: distinct clusterings hash apart, identical ones (e.g. the
   same workload clustered for two MSHR counts that lead to the same
   transformation) hash together. The trace and the home map are
   immutable once built, so sharing across runs is safe. Lowered traces
   are the largest values we memoize (24 bytes per instruction, in
   chunks of 2^16 instructions the GC never scans, with at most one
   partly filled chunk per trace), so this cache has the smallest cap. *)
let lower_cache : (Lower.t * (int -> int)) Analysis_cache.t =
  Analysis_cache.create ~cap:32 ~name:"harness-lower" ()

(* [digest] is [program]'s content digest, which [simulate_cached] has
   already computed *)
let lowered_digest (w : Workload.t) ~nprocs ~digest program =
  let key = Printf.sprintf "%s|%d|%s" w.Workload.name nprocs digest in
  Analysis_cache.find_or_compute lower_cache key (fun () ->
      let data = Data.create program in
      w.Workload.init data;
      let lowered = Lower.build ~nprocs program data in
      let home = Data.home_of_addr data ~nprocs in
      (lowered, home))

let lowered_for w ~nprocs program =
  lowered_digest w ~nprocs ~digest:(Analysis_cache.content_digest program) program

let lp_of caps = List.fold_left Int.min max_int caps

(* A run reads the same at any capacities that refuse no allocation it
   made. Every level's file holds the same entries (a memory-bound miss
   inserts one shared entry at each, and it expires at one [ready]), so
   all levels share one occupancy, and within a step it only grows after
   the step's cleanup: the sample taken after each step is that step's
   peak. A run whose peak [p] stayed below its own lp was never refused
   an entry, and each allocation found at most [p] - 1 entries, so
   capacities of at least [p] refuse nothing either and the run is
   identical cycle for cycle; only the histograms, of lp + 1 buckets,
   change size. *)
let reuse_run ran (r : Machine.result) caps =
  let lp = lp_of ran and lp' = lp_of caps in
  let rec peak k =
    if k = 0 || Stats.Histogram.bucket r.Machine.total_mshr_hist k > 0.0 then k
    else peak (k - 1)
  in
  let p = peak lp in
  (* the weights are whole numbers, so the re-bucketed totals are the
     ones [Machine] adds up *)
  let rebucket h =
    let h' = Stats.Histogram.create (lp' + 1) in
    for v = 0 to p do
      Stats.Histogram.add_weighted h' v (Stats.Histogram.bucket h v)
    done;
    h'
  in
  if p < lp && p <= lp' then
    Some
      { r with
        Machine.read_mshr_hist = rebucket r.Machine.read_mshr_hist;
        total_mshr_hist = rebucket r.Machine.total_mshr_hist }
  else None

(* One more memo on top of [lowered_for]: the simulation result itself.
   Different specs frequently simulate the same program — an ablation
   variant that leaves out a pass which changed nothing ships the
   Clustered program, and an lp sweep's points differ only in MSHR
   counts — and [Machine.result] is only ever read by the reporting code.
   The key is (workload, nprocs, config contents but for its name and
   MSHR counts, program digest, resolved mode); under it sit the runs
   done so far, each with its per-level MSHR capacities, so a request at
   other capacities can reuse a run that [reuse_run] admits. A config is
   keyed on its content digest, not its name ([Config.with_mshrs] and the
   other [with_*] builders keep the name) and not its physical sharing,
   so equal configs built differently share an entry. *)
let sim_cache : (int list * Machine.result) list Analysis_cache.t =
  Analysis_cache.create ~cap:512 ~name:"harness-sim" ()

(* makes reading a key's runs and adding one a single step, so domains
   that finish runs under one key together keep them all; simulations
   run outside it *)
let sim_lock = Mutex.create ()

(* the resolved mode is part of the key because it can come from outside
   the config (the MEMCLUST_SIM_MODE environment variable) *)
let simulate_cached (w : Workload.t) (cfg : Config.t) ~nprocs program =
  let digest = Analysis_cache.content_digest program in
  let key =
    Printf.sprintf "%s|%d|%s|%s|%s" w.Workload.name nprocs
      (Analysis_cache.content_digest (Config.with_mshrs 0 { cfg with Config.name = "" }))
      digest
      (Machine.mode_to_string (Machine.resolve_mode cfg))
  in
  let caps = List.map (fun l -> l.Config.mshrs) cfg.Config.levels in
  let runs () = Option.value ~default:[] (Analysis_cache.find_opt sim_cache key) in
  let stored = runs () in
  match List.assoc_opt caps stored with
  | Some r -> r
  | None ->
      let r =
        match List.find_map (fun (ran, r) -> reuse_run ran r caps) stored with
        | Some r -> r
        | None ->
            let lowered, home = lowered_digest w ~nprocs ~digest program in
            Machine.run cfg ~home lowered
      in
      Mutex.protect sim_lock (fun () ->
          Analysis_cache.set sim_cache key ((caps, r) :: runs ()));
      r

let spec_key spec =
  Printf.sprintf "%s|%s#%s|%d|%s|%s" spec.workload.Workload.name
    spec.config.Config.name
    (Analysis_cache.content_digest spec.config)
    spec.nprocs
    (match spec.version with
    | Base -> "base"
    | Clustered -> "clust"
    | Prefetched -> "pf"
    | Clustered_prefetched -> "clust+pf"
    | Ablated { passes; scheduler } -> "clust[" ^ pipeline_key passes scheduler ^ "]")
    (Machine.mode_to_string (Machine.resolve_mode spec.config))

(* No memo of its own: the cluster and sim memos serve a repeated point *)
let execute_cached spec =
  let w = spec.workload in
  let cfg = scaled_config spec.config w in
  let prefetched p =
    fst
      (Memclust_transform.Prefetch_pass.insert ~latency:cfg.Config.mem_lat
         ~issue_width:cfg.Config.issue_width ~line_size:(Config.line cfg) p)
  in
  let clustered ?passes ?scheduler () =
    let p, r = transform ?passes ?scheduler cfg w in
    (p, Some r)
  in
  let program, cluster_report =
    match spec.version with
    | Base -> (Program.renumber w.Workload.program, None)
    | Prefetched -> (prefetched (Program.renumber w.Workload.program), None)
    | Clustered -> clustered ()
    | Ablated { passes; scheduler } -> clustered ~passes ~scheduler ()
    | Clustered_prefetched ->
        let p, r = clustered () in
        (prefetched p, r)
  in
  let result = simulate_cached w cfg ~nprocs:spec.nprocs program in
  { spec; result; cluster_report; program }

let execute_all specs =
  let seen = Hashtbl.create 16 in
  let unique =
    List.filter
      (fun s ->
        let k = spec_key s in
        (not (Hashtbl.mem seen k)) && (Hashtbl.add seen k (); true))
      specs
  in
  (* from the calling domain and in spec order, before the fan-out, so
     the log reads the same whichever order the pool runs the points in *)
  List.iter (fun s -> Printf.eprintf "[run] %s...\n%!" (spec_key s)) unique;
  let results =
    Domain_pool.map_result ~task_name:spec_key (Domain_pool.default ())
      execute_cached unique
  in
  let outcomes = Hashtbl.create 16 in
  List.iter2
    (fun s r ->
      let k = spec_key s in
      (match r with
      | Ok _ -> ()
      | Error e -> Printf.eprintf "[degraded] %s: %s\n%!" k (Error.to_string e));
      Hashtbl.replace outcomes k r)
    unique results;
  fun spec ->
    let k = spec_key spec in
    match Hashtbl.find_opt outcomes k with
    | Some (Ok o) -> o
    | Some (Error e) -> Error.raise_err e
    | None -> invalid_arg ("Experiment.execute_all: no such spec " ^ k)

let clear_caches () = Analysis_cache.clear_all ()

let exec_cycles o = o.result.Machine.cycles

let data_stall o = o.result.Machine.breakdown.Breakdown.data_stall
