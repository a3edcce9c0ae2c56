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
  | Ablated of { passes : string list; scheduler : Driver.scheduler }
      (** clustering by another pipeline: only the named passes
          ([uniquify] always runs), with the given scheduler (the
          driver-stage ablation, an extension) *)

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

val transform :
  ?passes:string list ->
  ?scheduler:Driver.scheduler ->
  Config.t ->
  Workload.t ->
  Ast.program * Driver.report
(** Cluster the workload for the given machine ([max_procs] the
    workload's [mp_procs]) with the named passes (default all, see
    {!Driver.run}'s [only]) and scheduler (default [Pack_misses]).
    Memoized per workload name, source program contents, analysis-side
    machine parameters, pass set and scheduler, so the default pipeline
    named explicitly shares the [Clustered] version's entry, and two
    workloads of one name over different programs do not share one. *)

val lowered_for :
  Workload.t -> nprocs:int -> Ast.program -> Memclust_codegen.Lower.t * (int -> int)
(** The program lowered for [nprocs] processors over a fresh store set up
    by the workload's [init], with its address-to-home-node map; memoized
    on the workload, [nprocs] and a content digest of the program (the
    [harness-lower] memo, which {!simulate_cached} reads too). Shared:
    treat it as read-only. *)

val simulate_cached :
  Workload.t -> Config.t -> nprocs:int -> Ast.program -> Machine.result
(** Lower (memoized on a structural program digest — one lowering serves
    every config simulating the same program) and simulate. The
    [harness-sim] memo keys on the workload, nprocs, the config's
    contents but for its name and MSHR counts, the program digest and
    the resolved simulation mode, and holds every run done under that
    key with its per-level MSHR capacities. A request at capacities
    already run returns that run's result; otherwise a run that
    {!reuse_run} admits is re-bucketed and stored under the new
    capacities; only when none does is the program simulated. So once
    an lp sweep has run a point whose MSHR files never filled, every lp
    at or above that run's peak occupancy reads it instead of
    simulating again. The returned result is shared: treat it as
    read-only. *)

val reuse_run : int list -> Machine.result -> int list -> Machine.result option
(** [reuse_run ran r caps] is [r], a run at per-level MSHR capacities
    [ran] (processor side first), as a run of the same machine and
    program at capacities [caps] reads, when [r] shows it must read so:
    its peak MSHR occupancy [p] (the last non-empty bucket of
    [total_mshr_hist]) is below [ran]'s lp and at most [caps]'s. Then
    no allocation was ever refused, and none would be at [caps], so
    the runs are identical but for the MSHR histograms' sizes (lp + 1
    buckets), which the result gets re-bucketed to. [None] otherwise. *)

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
    configs (Exemplar) are used unchanged. Prints nothing.
    Safe to call from multiple domains concurrently (the memo tables are
    mutex-guarded; racing domains may duplicate deterministic work,
    never corrupt state). *)

val execute_all : spec list -> spec -> outcome
(** [execute_all specs] runs every distinct point of [specs] (by
    {!spec_key}) once, across {!Memclust_util.Domain_pool.default}, and
    returns its lookup. Before the fan-out it prints each distinct
    point's [[run]] line to stderr, in spec order, so two runs of one
    sweep log the same lines in the same order. A point that fails (a
    simulator deadlock, which the pool does not retry, or a crash that
    fails its retry too) is logged to stderr and loses only its own
    slot: looking it up raises its [Memclust_util.Error.Error].
    Looking up a spec that was not in [specs] raises [Invalid_argument]. *)

val clear_caches : unit -> unit
(** Drop every memoized clustering, lowering and simulation
    (process-wide — clears all registered {!Memclust_util.Analysis_cache}
    tables, including the driver's profile cache). The caches are also
    entry-capped, so calling this is optional even for long sweeps. *)

val exec_cycles : outcome -> int
val data_stall : outcome -> float
