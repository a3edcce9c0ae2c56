open Memclust_util
open Memclust_ir
open Memclust_cluster
open Memclust_codegen
open Memclust_sim
open Memclust_workloads

type version = Base | Clustered | Prefetched | Clustered_prefetched

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

(* Clustering is deterministic: memoize per (workload, config) so the
   multiprocessor and uniprocessor runs share one transformation.

   All memo tables are [Analysis_cache]s: mutex-guarded (shared across the
   domains of the experiment pool) and bounded, so long bench sweeps can't
   grow memory without bound. Computation runs outside the lock: two
   domains racing on the same key may duplicate (deterministic) work, but
   [execute_all] deduplicates its spec list so this stays rare. *)
let cluster_cache : (Ast.program * Driver.report) Analysis_cache.t =
  Analysis_cache.create ~cap:128 ~name:"harness-cluster" ()

let transform (cfg : Config.t) (w : Workload.t) =
  let machine =
    { (machine_of_config cfg) with
      Machine_model.max_procs = max 1 w.Workload.mp_procs
    }
  in
  (* key on the analysis-side machine projection, not the config name:
     configs that differ only in latencies/clock (e.g. the 1 GHz point)
     share one clustering *)
  let key =
    Printf.sprintf "%s@w%d.m%d.l%d.p%d" w.Workload.name
      machine.Machine_model.window machine.Machine_model.mshrs
      machine.Machine_model.line_size machine.Machine_model.max_procs
  in
  Analysis_cache.find_or_compute cluster_cache key (fun () ->
      let options = { Driver.default_options with machine } in
      Driver.run ~options ~init:w.Workload.init w.Workload.program)

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

let lowered_for (w : Workload.t) ~nprocs program =
  let key =
    Printf.sprintf "%s|%d|%s" w.Workload.name nprocs (Analysis_cache.content_digest program)
  in
  Analysis_cache.find_or_compute lower_cache key (fun () ->
      let data = Data.create program in
      w.Workload.init data;
      let lowered = Lower.build ~nprocs program data in
      let home = Data.home_of_addr data ~nprocs in
      (lowered, home))

(* One more memo on top of [lowered_for]: the simulation result itself,
   keyed by (workload, nprocs, full config contents, program digest).
   Different figures frequently simulate the same program point — e.g.
   the ablation's "full pipeline" variant is exactly the Clustered
   version of the main tables — and [Machine.result] is only ever read
   by the reporting code. A config is keyed on its content digest, not
   its name ([Config.with_mshrs] and the other [with_*] builders keep the
   name) and not its physical sharing, so equal configs built
   differently share an entry. *)
let sim_cache : Machine.result Analysis_cache.t =
  Analysis_cache.create ~cap:512 ~name:"harness-sim" ()

(* the resolved mode is part of the key because it can come from outside
   the config (the MEMCLUST_SIM_MODE environment variable) *)
let simulate_cached (w : Workload.t) (cfg : Config.t) ~nprocs program =
  let key =
    Printf.sprintf "%s|%d|%s|%s|%s" w.Workload.name nprocs
      (Analysis_cache.content_digest cfg)
      (Analysis_cache.content_digest program)
      (Machine.mode_to_string (Machine.resolve_mode cfg))
  in
  Analysis_cache.find_or_compute sim_cache key (fun () ->
      let lowered, home = lowered_for w ~nprocs program in
      Machine.run cfg ~home lowered)

let spec_key spec =
  Printf.sprintf "%s|%s#%s|%d|%s|%s" spec.workload.Workload.name
    spec.config.Config.name
    (Analysis_cache.content_digest spec.config)
    spec.nprocs
    (match spec.version with
    | Base -> "base"
    | Clustered -> "clust"
    | Prefetched -> "pf"
    | Clustered_prefetched -> "clust+pf")
    (Machine.mode_to_string (Machine.resolve_mode spec.config))

(* No memo of its own: the cluster and sim memos serve a repeated point *)
let execute_cached spec =
  Printf.eprintf "[run] %s...\n%!" (spec_key spec);
  let w = spec.workload in
  let cfg = scaled_config spec.config w in
  let prefetched p =
    fst
      (Memclust_transform.Prefetch_pass.insert ~latency:cfg.Config.mem_lat
         ~issue_width:cfg.Config.issue_width ~line_size:(Config.line cfg) p)
  in
  let program, cluster_report =
    match spec.version with
    | Base -> (Program.renumber w.Workload.program, None)
    | Prefetched -> (prefetched (Program.renumber w.Workload.program), None)
    | Clustered ->
        let p, r = transform cfg w in
        (p, Some r)
    | Clustered_prefetched ->
        let p, r = transform cfg w in
        (prefetched p, Some r)
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
