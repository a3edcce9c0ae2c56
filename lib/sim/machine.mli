(** Multiprocessor simulation driver: lockstep cycle loop over all cores
    sharing one memory system, with per-cycle MSHR-occupancy sampling
    (Figure 4) and execution-time breakdowns (Figure 3). *)

open Memclust_util
open Memclust_codegen

type result = {
  cycles : int;
  breakdown : Breakdown.t;
      (** averaged over processors, so its total equals [cycles]; cycles a
          processor spends finished while others run count as sync *)
  per_proc : Breakdown.t array;
  read_mshr_hist : Stats.Histogram.t;
      (** per-cycle samples of read-occupied L2 MSHRs, all processors *)
  total_mshr_hist : Stats.Histogram.t;
  level_stats : Breakdown.level_stat array;
      (** per-hierarchy-level demand-load hits/misses, summed over
          processors, processor side first *)
  l2_misses : int;
      (** demand accesses that went to memory (the legacy name; see
          {!Core.l2_misses}) *)
  read_misses : int;
  l1_misses : int;  (** demand-load misses at the first level *)
  mshr_full_events : int;  (** load issues rejected: MSHRs full *)
  wbuf_full_events : int;  (** store issues rejected: write buffer full *)
  prefetches : int;  (** prefetch hints issued *)
  prefetch_misses : int;  (** prefetches that fetched from memory *)
  late_prefetches : int;  (** demand loads catching an in-flight prefetch *)
  avg_read_miss_latency : float;  (** cycles, request to completion *)
  bus_utilization : float;
  bank_utilization : float;
  instructions : int;
}

type mode =
  | Cycle  (** strict cycle-by-cycle loop (the reference semantics) *)
  | Event
      (** event-driven: a core whose step changed nothing sleeps until
          its next completion event or the next barrier arrival, and is
          not stepped meanwhile; when no core is awake, [now] jumps to
          the earliest wake time. A waking core replays the per-cycle
          statistics of the cycles it slept through. Produces
          bit-identical {!result} values to {!Cycle}. *)

val mode_of_string : string -> mode option
(** Accepts ["cycle"] and ["event"] (case-insensitive). *)

val mode_to_string : mode -> string

val default_mode : unit -> mode
(** [Event], unless overridden by the [MEMCLUST_SIM_MODE] environment
    variable (["cycle"] or ["event"]). Raises [Invalid_argument] on any
    other value of the variable. *)

val default_watchdog_cycles : unit -> int
val default_time_budget : unit -> float
(** [MEMCLUST_WATCHDOG_CYCLES] (a positive integer; default 1 000 000)
    and [MEMCLUST_TIME_BUDGET_S] (seconds [>= 0], 0 disables; default 0).
    Unset or empty gives the default; any other value raises
    [Invalid_argument] naming the variable. *)

val resolve_mode : ?mode:mode -> Config.t -> mode
(** The mode a run of [cfg] will use: an explicit [?mode] wins, then the
    config's [sim_mode] string (["cycle"] or ["event"]; raises
    [Invalid_argument] on anything else), then {!default_mode} (). *)

val run :
  ?max_cycles:int ->
  ?watchdog_cycles:int ->
  ?time_budget:float ->
  ?mode:mode ->
  Config.t ->
  home:(int -> int) ->
  Lower.t ->
  result
(** Simulate the traces to completion. [home] maps byte addresses to their
    home node. [mode] defaults to {!resolve_mode} of the config.

    A wedged machine never hangs: the run raises
    [Error.Error (Sim_deadlock _)] — carrying the per-proc PCs, barrier
    progress, per-level MSHR occupancies and pending completion events —
    when (a) [max_cycles] (default 400 million) is exceeded, (b) no core
    changes state for [watchdog_cycles] consecutive simulated cycles
    (default {!default_watchdog_cycles}), (c) event mode finds unfinished
    cores with no pending completion anywhere, or (d) the optional
    wall-clock budget [time_budget] seconds (default
    {!default_time_budget}; 0 = disabled) runs out. The watchdog only reads simulator state, so
    results on non-wedged runs are bit-identical with it enabled. *)

val run_with_refusals :
  ?max_cycles:int ->
  ?watchdog_cycles:int ->
  ?time_budget:float ->
  ?mode:mode ->
  Config.t ->
  home:(int -> int) ->
  Lower.t ->
  result * int
(** {!run}, and the number of MSHR allocations some full file refused,
    summed over processors ({!Hierarchy.refusals}: loads, write-buffer
    drains and prefetches). A run that refused none reads the same at
    any capacities at least its peak occupancy (the harness's
    [Experiment.reuse_run] reuses it so). Whether it is 0 does not
    depend on the mode. *)

val ns_per_cycle : Config.t -> float

val pp_result : Format.formatter -> result -> unit
