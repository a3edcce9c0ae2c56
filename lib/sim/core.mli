(** The out-of-order processor core.

    Models exactly the pipeline mechanisms the paper's effect depends on:
    a finite instruction window with in-order retire (up to retire_width
    per cycle), out-of-order issue bounded by functional units, and
    stores that retire into a write buffer before completing (release
    consistency). All memory behavior — cache lookups, MSHR
    allocation/coalescing, fills, coherence — lives in {!Hierarchy}; the
    core only consumes its completion-time / retry signals.

    One [t] per processor; all processors share a {!shared} context
    (memory system, coherence versions, barrier state). *)

open Memclust_codegen

type shared = {
  h : Hierarchy.shared;
      (** memory-side shared state (config, memory system, coherence
          versions, home map) *)
  reached : int array;  (** per-processor barrier progress *)
  mutable barrier_epoch : int;
      (** bumped whenever any entry of [reached] changes: a core sleeping
          on a barrier wakes as soon as it differs from the value seen
          when it went to sleep *)
}

type t

val make_shared : Config.t -> nprocs:int -> home:(int -> int) -> shared
val create : shared -> proc:int -> Trace.t -> t

val step : t -> now:int -> unit
(** One cycle: MSHR cleanup, write-buffer drain, retire (with stall
    attribution), issue, fetch. Also records whether the cycle made
    progress (see {!progressed}) and what {!replay_idle} repeats: the
    stall category its retire slots were charged to and the number of
    loads it retried on full MSHRs. *)

val progressed : t -> bool
(** Whether the last {!step} changed simulation state — retired, issued
    or fetched an instruction, drained or launched a memory operation,
    or advanced the shared barrier state (which bumps
    [shared.barrier_epoch]) — as opposed to only accumulating per-cycle
    statistics (stall attribution, retry counters). A no-progress step
    is a fixed point: re-running it at any cycle before {!next_event},
    while [shared.barrier_epoch] is unchanged, produces identical
    effects. Other processors cannot disturb it in between: the only
    other shared state it reads is coherence versions, on a load or a
    buffered write rejected on full MSHRs, and another core's write
    cannot turn such a miss into a hit (it only makes lines staler and
    takes ownership away). *)

val next_event : t -> now:int -> int
(** Earliest cycle strictly after [now] at which this core's behaviour
    can change on its own: the minimum over pending miss completions,
    draining write completions, and in-window issued instructions'
    completion times (found by scanning the window). [max_int] when
    nothing is pending (the core is either finished or waiting on
    another processor's barrier arrival). The other wake condition of a
    stalled core — a change of [shared.barrier_epoch] — is not timed and
    is not included. Reads the core only, so it is safe to call at any
    time, for instance from a state dump. *)

val replay_idle : t -> times:int -> unit
(** Repeat the per-cycle statistic side effects of the last (no-progress)
    {!step} [times] more times: a full cycle of the step's stall
    category, plus, for each of its MSHR-full retries, one miss per
    level and one MSHR-full event (a retry misses every level: a hit or
    a coalesced in-flight miss would have issued). Used by the
    event-driven machine loop when a sleeping core wakes, for the cycles
    it slept through; bit-identical to stepping cycle by cycle as long
    as it slept only until {!next_event} or a barrier-epoch change. Only
    meaningful when the last step made no progress. *)

val finished : t -> bool
val breakdown : t -> Breakdown.t

val mshr_read_occupancy : t -> int
(** In-flight misses holding a demand read (measured at the memory-side
    MSHR file, see {!Hierarchy.read_occupancy}). *)

val mshr_total_occupancy : t -> int

val l2_misses : t -> int
(** Demand accesses that went to memory (reads + drained writes) — the
    legacy name for {!Hierarchy.mem_misses}. *)

val read_misses : t -> int

val read_miss_latency_sum : t -> float
(** Sum over demand read misses of request-to-completion cycles. *)

val retired_instructions : t -> int

val l1_misses : t -> int
(** demand-load misses at the first hierarchy level *)

val mshr_full_events : t -> int
(** load-issue attempts rejected because some MSHR file was full *)

val mshr_refusals : t -> int
(** MSHR allocations refused on a full file: loads, write-buffer drains
    and prefetches ({!Hierarchy.refusals}) *)

val wbuf_full_events : t -> int
(** Stores whose issue was delayed by at least one cycle because the
    write buffer (pending + in-flight writes) was full. Counted once per
    stalled store instruction, when it is first rejected — retry cycles
    of the same store do not count again, and a store that issues on its
    first attempt never counts. *)

val prefetches : t -> int
(** prefetch hints issued *)

val prefetch_misses : t -> int
(** prefetches that actually fetched a line from memory *)

val late_prefetches : t -> int
(** demand loads that caught a still-in-flight prefetch *)

val level_stats : t -> Breakdown.level_stat array
(** Per-level demand-load hit/miss rows (see {!Hierarchy.level_stats}). *)

val hierarchy_depth : t -> int

val mshr_occupancy_by_level : t -> (int * int) array
(** This processor's per-level MSHR [(occupancy, capacity)] pairs (see
    {!Hierarchy.mshr_occupancy_by_level}); for deadlock state dumps. *)

val trace : t -> Trace.t
(** The instruction trace this core executes. *)

val position : t -> int
(** Index of the oldest unretired instruction (the window head). *)
