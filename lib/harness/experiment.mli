(** Running one (workload, machine, processor-count, version) point of the
    evaluation: apply (or skip) the clustering transformations, lower,
    simulate, and collect the simulator's statistics. *)

open Memclust_ir
open Memclust_cluster
open Memclust_sim
open Memclust_workloads

type version =
  | Base
  | Clustered
  | Prefetched  (** software prefetching only (extension) *)
  | Clustered_prefetched  (** clustering then prefetching (extension) *)

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
      (** None for unclustered versions; its [trace] is the clustering
          pipeline's per-pass instrumentation *)
  program : Ast.program;  (** the program actually simulated *)
}

val machine_of_config : Config.t -> Machine_model.t
(** The analysis-side machine parameters implied by a simulator config. *)

val transform : Config.t -> Workload.t -> Ast.program * Driver.report
(** Cluster the workload for the given machine (memoized per workload
    name and analysis-side machine parameters — transformation is
    deterministic). *)

val simulate_cached :
  Workload.t -> Config.t -> nprocs:int -> Ast.program -> Machine.result
(** Lower (memoized on a structural program digest — one lowering serves
    every config simulating the same program) and simulate (memoized on
    workload, nprocs, config contents, program digest and resolved
    simulation mode). The returned result is shared: treat it as
    read-only. *)

val spec_key : spec -> string
(** ["workload|config#digest|nprocs|version|mode"], the config keyed on
    its {!Memclust_util.Analysis_cache.content_digest} (its name alone
    would merge configs that [Config.with_mshrs] and the other [with_*]
    builders derive). Two specs with one key are one point. *)

val execute_cached : spec -> outcome
(** Run one point: cluster (or not), lower and simulate, through the
    cluster, lowering and simulation memos, so a repeated point costs
    only the memo lookups. The workload's scaled L2 size is applied to
    the config when the config has a two-level hierarchy; single-level
    configs (Exemplar) are used unchanged. Logs the point to stderr.
    Safe to call from multiple domains concurrently (the memo tables are
    mutex-guarded; racing domains may duplicate deterministic work,
    never corrupt state). *)

val execute_all : spec list -> spec -> outcome
(** [execute_all specs] runs every distinct point of [specs] (by
    {!spec_key}) once, across {!Memclust_util.Domain_pool.default}, and
    returns its lookup. A point that fails (a simulator deadlock, which
    the pool does not retry, or a crash that fails its retry too) is
    logged to stderr and loses only its own slot: looking it up raises
    its [Memclust_util.Error.Error].
    Looking up a spec that was not in [specs] raises [Invalid_argument]. *)

val clear_caches : unit -> unit
(** Drop every memoized clustering, lowering and simulation
    (process-wide — clears all registered {!Memclust_util.Analysis_cache}
    tables, including the driver's profile cache). The caches are also
    entry-capped, so calling this is optional even for long sweeps. *)

val exec_cycles : outcome -> int
val data_stall : outcome -> float
