(** The per-processor memory hierarchy: a stack of cache levels — each
    with its own geometry, hit latency and {!Mshr} file — terminating in
    the shared banked {!Memsys}.

    The stack owns the whole miss lifecycle (lookup, MSHR
    allocate/coalesce, fill on completion, stale-version invalidation)
    and exposes only completion-time / retry signals; the pipeline in
    {!Core} never sees cache geometry or MSHR internals.

    A hit at level [k] is a pipelined access at that level's latency and
    refills the levels above. A miss past the last level allocates one
    shared {!Mshr.entry} in every level's file (each under its own line
    key), so the smallest file bounds outstanding misses — the paper's
    [lp] — and a same-line access at any level coalesces onto the entry.
    Coherence and memory transfers use the last level's line size. *)

(** The shared coherence state: line -> (coherence version, last
    writer), packed into one int; an absent line reads 0, which is
    version 0 with no writer. An open-addressing table over int arrays:
    a lookup neither allocates nor hashes polymorphically. *)
module Versions : sig
  type t

  val create : int -> t
  (** An empty table with room for about half the given number of
      lines before it first grows. *)

  val find : t -> int -> int
  (** The value stored under a line, or 0 when there is none. *)

  val replace : t -> int -> int -> unit
  (** Store a value under a line, growing the table as needed. Raises
      [Invalid_argument] for the line [min_int], which marks a free
      cell. *)

  val length : t -> int
  (** Lines stored. *)
end

type shared = {
  cfg : Config.t;
  mem : Memsys.t;
  versions : Versions.t;
  home : int -> int;  (** home node of a byte address *)
  nprocs : int;
}

type t

val make_shared : Config.t -> nprocs:int -> home:(int -> int) -> shared

val create : shared -> proc:int -> t
(** One hierarchy per processor, built from [cfg.levels]. Raises
    [Invalid_argument] on an empty stack. *)

val depth : t -> int

val read : t -> now:int -> int -> int option
(** Demand load at a byte address: [Some completion_cycle], or [None]
    when the miss could not allocate an MSHR at some level (retry next
    cycle; counted in {!mshr_full_events}). Coalesces onto an in-flight
    same-line miss, catching late prefetches. *)

val write : t -> now:int -> int -> int option
(** Write-buffer drain access (write-allocate, ownership via coherence
    versions): [Some completion_cycle] or [None] on a full MSHR file
    (not counted — the buffered store retries silently). *)

val prefetch : t -> now:int -> int -> unit
(** Non-binding prefetch hint: fills on hit paths, allocates a
    [prefetch_only] MSHR on a memory miss, dropped when the line is
    present/in flight or no MSHR is free. *)

val cleanup : t -> now:int -> bool
(** Retire completed misses from every level's file; true when any
    in-flight miss completed (a state change for the event loop). *)

val next_completion : t -> int
(** Earliest pending miss completion across the stack; [max_int] when
    none are in flight. *)

val read_occupancy : t -> int
(** In-flight misses with a demand read, measured at the last
    (memory-side) level — the paper's Figure 4 metric. *)

val total_occupancy : t -> int

val mshr_occupancy_by_level : t -> (int * int) array
(** [(occupancy, capacity)] of every level's MSHR file, processor side
    first — the watchdog's deadlock state dump. *)

(** {2 Statistics} *)

val mem_misses : t -> int
(** Demand accesses (reads + drained writes) that went to memory — the
    legacy "L2 misses" counter, now hierarchy-depth independent. *)

val read_misses : t -> int
val read_miss_latency_sum : t -> float

val l1_misses : t -> int
(** Demand loads missing the first level (= [level_stats].(0).lv_misses). *)

val mshr_full_events : t -> int

val refusals : t -> int
(** MSHR allocations that found a file full: demand reads, write-buffer
    drains and prefetches, as attempted ({!replay_retry} adds nothing).
    Event mode does not repeat a sleeping core's attempts, so the count
    can differ between modes; whether it is 0 cannot (a skipped step
    repeats the step before it). *)

val prefetches : t -> int
val prefetch_misses : t -> int
val late_prefetches : t -> int

val level_stats : t -> Breakdown.level_stat array
(** Fresh per-level demand-load hit/miss rows, processor side first. *)

val replay_retry : t -> retries:int -> times:int -> unit
(** Re-apply the per-cycle retry statistics of a no-progress step [times]
    more times (event-mode idle replay, see {!Core.replay_idle}): each of
    its [retries] loads was rejected on full MSHRs after missing every
    level, so each adds one miss per level and one MSHR-full event. *)
