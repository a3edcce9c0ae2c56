type entry = {
  mutable ready : int;
  mutable has_read : bool;
  mutable has_write : bool;
  mutable prefetch_only : bool;  (* allocated by a prefetch, no demand yet *)
}

(* Fills the free tail of [entries] and is what [find] returns for an
   absent line; never inserted. *)
let none = { ready = max_int; has_read = false; has_write = false; prefetch_only = false }

(* The file is a handful of entries (the paper's lp is at most 16), so
   the live ones sit unordered in the first [n] cells of two parallel
   arrays and every search is a linear scan. [lines] is an int array, so
   a probe reads no pointer and allocates nothing. The arrays grow with
   occupancy, never with [cap], which a configuration may set very
   large. *)
type t = {
  cap : int;
  mutable lines : int array;
  mutable entries : entry array;
  mutable n : int;
  mutable read_occ : int;  (* entries with [has_read] *)
  mutable next : int;  (* earliest [ready] of the live entries, or max_int *)
}

let initial = 8

let create ~cap =
  {
    cap;
    lines = Array.make initial 0;
    entries = Array.make initial none;
    n = 0;
    read_occ = 0;
    next = max_int;
  }

let capacity t = t.cap
let occupancy t = t.n
let read_occupancy t = t.read_occ
let is_empty t = t.n = 0
let full t = t.n >= t.cap

let index t line =
  let lines = t.lines and n = t.n in
  let i = ref 0 in
  while !i < n && lines.(!i) <> line do
    incr i
  done;
  if !i < n then !i else -1

let find t line =
  let i = index t line in
  if i < 0 then none else t.entries.(i)

let mem t line = index t line >= 0

let grow t =
  let size = 2 * Array.length t.lines in
  let lines = Array.make size 0 and entries = Array.make size none in
  Array.blit t.lines 0 lines 0 t.n;
  Array.blit t.entries 0 entries 0 t.n;
  t.lines <- lines;
  t.entries <- entries

let insert t ~line e =
  if t.n = Array.length t.lines then grow t;
  t.lines.(t.n) <- line;
  t.entries.(t.n) <- e;
  t.n <- t.n + 1;
  if e.ready < t.next then t.next <- e.ready;
  if e.has_read then t.read_occ <- t.read_occ + 1

let note_read t = t.read_occ <- t.read_occ + 1

(* [ready] is fixed after insertion, so [next] stays exact: while it is
   after [now] nothing has expired and cleanup is one test. Otherwise one
   pass drops every expired entry, moving the last live one into its
   cell, and recomputes [next] over the survivors. Returns whether
   anything expired (a state change the event loop must observe). *)
let cleanup t ~now =
  if t.next > now then false
  else begin
    let next = ref max_int in
    let i = ref 0 in
    while !i < t.n do
      let e = t.entries.(!i) in
      if e.ready <= now then begin
        if e.has_read then t.read_occ <- t.read_occ - 1;
        let last = t.n - 1 in
        t.lines.(!i) <- t.lines.(last);
        t.entries.(!i) <- t.entries.(last);
        t.entries.(last) <- none;
        t.n <- last
      end
      else begin
        if e.ready < !next then next := e.ready;
        incr i
      end
    done;
    t.next <- !next;
    true
  end

let next_ready t = t.next
