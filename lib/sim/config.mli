(** Simulated machine configurations (paper Table 1 and §4.1).

    The cache hierarchy is a list of {!level}s, processor side first; the
    last level is the memory-side one, whose line size sets the coherence
    and memory-transfer granularity. All latencies are in processor
    cycles; the uncontended end-to-end memory latencies ([mem_lat],
    [remote_lat], [c2c_lat]) already include the bus and bank occupancies,
    which the memory system subtracts when computing contention. *)

type level = {
  bytes : int;  (** capacity, bytes (power of two) *)
  assoc : int;  (** set associativity *)
  line : int;  (** line size, bytes (power of two) *)
  lat : int;  (** hit latency at this level, cycles *)
  mshrs : int;  (** MSHR file capacity at this level *)
}

type t = {
  name : string;
  clock_mhz : int;
  (* core *)
  fetch_width : int;
  issue_width : int;
  retire_width : int;
  window : int;
  max_branches : int;
  alus : int;
  fpus : int;
  addr_units : int;
  (* memory hierarchy, processor side first *)
  levels : level list;
  write_buffer : int;
  (* memory system *)
  mem_lat : int;  (** local memory, uncontended *)
  remote_lat : int;  (** remote (home on another node), uncontended *)
  c2c_lat : int;  (** cache-to-cache (dirty on another node), uncontended *)
  hop_cycles : int;
      (** additional cycles per Manhattan hop on the 2D mesh (Table 1's
          flit delay); remote latencies are minimum + hops x this *)
  banks : int;
  bank_busy : int;  (** bank occupancy per access *)
  bus_req_occ : int;  (** bus occupancy of the request *)
  bus_data_occ : int;  (** bus occupancy of the line transfer *)
  skewed_interleave : bool;  (** skewed vs permutation bank interleaving *)
  smp : bool;  (** true: one bus + one bank set shared by all processors
                   (Exemplar hypernode); false: CC-NUMA per-node memory *)
  sim_mode : string option;
      (** simulation mode override for runs of this config: ["cycle"] or
          ["event"] ({!Machine.mode_of_string}). [None] (the presets'
          value) defers to the [MEMCLUST_SIM_MODE] environment variable,
          then the event-driven mode. *)
  faults : Faults.plan option;
      (** fault-injection plan for the memory system of runs of this
          config. [None] (the presets' value) defers to the
          [MEMCLUST_FAULTS] environment variable, then no faults. *)
}

val levels : t -> level list
val depth : t -> int

val line : t -> int
(** Coherence / memory-transfer line size: the last (memory-side)
    level's. *)

val lp : t -> int
(** The outstanding-miss bound: a miss holds an MSHR at every level, so
    the smallest file in the stack caps memory parallelism (the paper's
    [lp]). 0 for an empty stack. *)

val base : t
(** The paper's base system: 500 MHz, 4-wide, 64-entry window, 16 KB L1,
    64 KB 4-way L2, 10 MSHRs per level, 64 B lines, 85-cycle local
    memory. *)

val exemplar_like : t
(** Convex Exemplar-like SMP node: 4-wide PA-8000-ish core, 56-entry
    window, single-level 1 MB cache with 32 B lines, 10 outstanding
    misses, skewed interleaving, shared bus and banks. *)

val three_level : t
(** Base core over a 3-level stack (16 KB L1 / 64 KB L2 / 512 KB L3) with
    MSHR files shrinking toward memory (lp = 10 at the L3). *)

val with_levels : level list -> t -> t

val with_l2 : int -> t -> t
(** Resize the last (memory-side) level of a multi-level stack (Table 1
    uses 64 KB or 1 MB per application). No-op on a single-level
    hierarchy. *)

val with_mshrs : int -> t -> t
(** Set every level's MSHR file capacity (so [lp] becomes that value on a
    uniform stack). *)

val with_line : int -> t -> t
(** Set every level's line size. *)

val with_sim_mode : string -> t -> t
(** Pin the simulation mode, ["cycle"] or ["event"], for runs of this
    config (parsed by {!Machine.resolve_mode} at run time; any other
    string raises [Invalid_argument] there). *)

val with_faults : Faults.plan -> t -> t
(** Pin a fault-injection plan for runs of this config. *)

val resolve_faults : t -> Faults.plan option
(** The plan actually used: the [faults] field if set, otherwise
    [MEMCLUST_FAULTS] from the environment, otherwise [None]. *)

val ghz : t -> t
(** 1 GHz variant: identical memory system in ns, so all memory-side
    latencies (every level but the L1 included) double in cycles (§5.2). *)

val validate : t -> (unit, Memclust_util.Error.t) result
(** Structural sanity: at least one level; positive widths, window,
    functional units, write buffer, banks and per-level MSHR counts;
    power-of-two line and cache sizes; capacity at least one set; sizes
    and line sizes non-decreasing toward memory. Errors are
    [Config_invalid] naming the config and the offending field. *)

val validate_exn : t -> unit
(** Raises [Invalid_argument] with {!validate}'s rendered message. *)

val pp : Format.formatter -> t -> unit
