(** Reproduction of every table and figure in the paper's evaluation
    (§4–§5). Each function runs the experiment points it needs once,
    across the domain pool ({!Experiment.execute_all}), and renders the
    same rows/series the paper reports. *)

val table1 : unit -> string
(** Table 1: the base simulated configuration. *)

val table2 : unit -> string
(** Table 2: workload input sizes and processor counts (our scaled
    versions, with the paper's originals alongside). *)

val latbench : unit -> string
(** §5.1: Latbench average read-miss stall time, base vs clustered, on the
    base simulated system and the Exemplar-like system, with the paper's
    numbers for comparison. *)

val fig3a : unit -> string
(** Figure 3(a): multiprocessor execution-time breakdown, base vs
    clustered, normalized to base = 100. *)

val fig3b : unit -> string
(** Figure 3(b): uniprocessor execution-time breakdown. *)

val table3 : unit -> string
(** Table 3: percent execution-time reduction on the Exemplar-like
    configuration (multiprocessor and uniprocessor). *)

val fig4a : unit -> string
(** Figure 4(a): read-MSHR occupancy curves for multiprocessor LU and
    Ocean — fraction of time at least N MSHRs hold read misses. *)

val fig4b : unit -> string
(** Figure 4(b): total (read + write) MSHR occupancy curves. *)

val ghz : unit -> string
(** §5.2: the 1 GHz sensitivity experiment — same memory system in ns,
    double the clock. *)

val prefetch : unit -> string
(** Extension (paper §6 / ref [8]): software prefetching alone, clustering
    alone, and both, with late-prefetch and contention statistics. *)

val ablation : unit -> string
(** Extension: per-stage ablation of the driver (unroll-and-jam, window
    resolution, scalar replacement, scheduling), one
    {!Experiment.Ablated} version per variant. *)

type sweep_row = {
  mshrs : int;
  line : int;
  base : Experiment.outcome;
  clustered : Experiment.outcome;
}

val sweep :
  mshrs:int list ->
  lines:int list ->
  (Memclust_workloads.Workload.t * int) list ->
  (Memclust_workloads.Workload.t * sweep_row list) list
(** Base and clustered outcomes on the base system with every MSHR file
    and line size set, for each (workload, processor count) × [mshrs] ×
    [lines], run in one {!Experiment.execute_all}; rows in grid order
    ([lines] innermost). A failed point raises its
    [Memclust_util.Error.Error]. *)

val mshr_sweep : unit -> string
(** Extension: clustering speedup and chosen unroll degree as the MSHR
    count (lp) varies ({!sweep} of Latbench and LU on one processor,
    64-byte lines). *)

val paper_ids : string list
(** The nine artifacts of the paper's evaluation. *)

val extension_ids : string list

val all_ids : string list
(** [paper_ids @ extension_ids]. *)

val by_id : string -> (unit -> string) option

val run_safe : string -> (string, Memclust_util.Error.t) result
(** Render one artifact with every failure — a point's watchdog
    deadlock or crash, as the pool stored it, or any other exception —
    caught into a structured error, so a batch of artifacts degrades
    per-artifact instead of aborting wholesale. A failed point is not
    run again. Unknown ids yield [Config_invalid]. *)
