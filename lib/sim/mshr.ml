open Memclust_util

type entry = {
  mutable ready : int;
  mutable has_read : bool;
  mutable has_write : bool;
  mutable prefetch_only : bool;  (* allocated by a prefetch, no demand yet *)
}

type t = {
  cap : int;
  table : entry Int_tbl.t;
  (* min-heap of completion times, kept in sync with [table]: every
     insertion pushes (ready, line), cleanup pops expired entries, so no
     per-cycle fold over the table is needed *)
  expiry : Pqueue.t;
  mutable read_occ : int;  (* entries with [has_read] *)
}

let create ~cap =
  { cap; table = Int_tbl.create 32; expiry = Pqueue.create (); read_occ = 0 }

let capacity t = t.cap
let occupancy t = Int_tbl.length t.table
let read_occupancy t = t.read_occ
let is_empty t = Int_tbl.length t.table = 0
let full t = Int_tbl.length t.table >= t.cap

let find t line = Int_tbl.find_opt t.table line
let mem t line = Int_tbl.mem t.table line

let insert t ~line e =
  Int_tbl.add t.table line e;
  Pqueue.push t.expiry e.ready line;
  if e.has_read then t.read_occ <- t.read_occ + 1

let note_read t = t.read_occ <- t.read_occ + 1

(* [ready] is immutable after insertion, so the heap never holds stale
   priorities: popping everything with [ready <= now] removes exactly the
   expired entries. Returns whether anything expired (a state change the
   event loop must observe). *)
let cleanup t ~now =
  let any = ref false in
  while Pqueue.min_prio t.expiry <= now do
    let line = Pqueue.min_value t.expiry in
    Pqueue.drop_min t.expiry;
    (match Int_tbl.find t.table line with
    | e ->
        if e.has_read then t.read_occ <- t.read_occ - 1;
        Int_tbl.remove t.table line
    | exception Not_found -> ());
    any := true
  done;
  !any

let next_ready t = Pqueue.min_prio t.expiry
