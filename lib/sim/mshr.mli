(** One level's MSHR (miss status holding register) file.

    A finite table of in-flight misses keyed by that level's line number,
    giving same-line coalescing: a second access to an in-flight line
    shares the existing entry instead of consuming a new one. The file
    size is the paper's outstanding-miss bound [lp] (the smallest file in
    a {!Hierarchy} stack governs, since a memory-bound miss holds an
    entry at every level).

    Entries are shared records: the {!Hierarchy} inserts one [entry] into
    every level's file (under each level's own line key), so flag updates
    (demand read arriving on a prefetch, write coalescing) are seen by
    all levels at once. [ready] must not change after insertion: the file
    caches its earliest [ready].

    A file is two small parallel arrays (lines and entries), searched
    linearly and grown with occupancy; no operation allocates except a
    growth. *)

type entry = {
  mutable ready : int;  (** completion cycle; fixed after insertion *)
  mutable has_read : bool;
  mutable has_write : bool;
  mutable prefetch_only : bool;
      (** allocated by a prefetch, no demand access yet *)
}

type t

val create : cap:int -> t

val capacity : t -> int
val occupancy : t -> int

val read_occupancy : t -> int
(** Entries with [has_read] (the paper's Figure 4 occupancy metric). *)

val is_empty : t -> bool
val full : t -> bool

val none : entry
(** What {!find} returns for an absent line; never in a file. Test for it
    with [==] and never update it. *)

val find : t -> int -> entry
(** In-flight entry covering the given line, or {!none} (coalescing
    probe). *)

val mem : t -> int -> bool
(** [find t line != none]. *)

val insert : t -> line:int -> entry -> unit
(** Add an entry under [line], which must not be in the file, to expire
    at [entry.ready]; counts toward {!read_occupancy} if [has_read] is
    already set. The caller checks {!full} first. *)

val note_read : t -> unit
(** An in-flight entry just gained its first demand read (the caller
    flips [has_read] once and notifies every file holding the entry). *)

val cleanup : t -> now:int -> bool
(** Retire every entry whose [ready] is at or before [now]; true when at
    least one entry expired. One comparison when none has. *)

val next_ready : t -> int
(** Earliest pending completion; [max_int] when the file is empty. *)
