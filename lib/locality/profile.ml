open Memclust_ir

(* Set-associative LRU cache over line addresses. [lines.(set * assoc + w)]
   holds a line address or -1; [ages] holds the LRU clock. *)
type cache = {
  assoc : int;
  sets : int;
  line_shift : int;
  lines : int array;
  ages : int array;
  mutable clock : int;
}

let cache ~cache_bytes ~assoc ~line_size =
  let nlines = max assoc (cache_bytes / line_size) in
  let sets = max 1 (nlines / assoc) in
  let line_shift =
    let rec log2 v acc = if v <= 1 then acc else log2 (v lsr 1) (acc + 1) in
    log2 line_size 0
  in
  { assoc; sets; line_shift; lines = Array.make (sets * assoc) (-1);
    ages = Array.make (sets * assoc) 0; clock = 0 }

(* true = miss *)
let access c addr =
  let line = addr lsr c.line_shift in
  let set = line mod c.sets in
  let base = set * c.assoc in
  c.clock <- c.clock + 1;
  let found = ref (-1) in
  let victim = ref base in
  for w = base to base + c.assoc - 1 do
    if c.lines.(w) = line then found := w;
    if c.ages.(w) < c.ages.(!victim) then victim := w
  done;
  if !found >= 0 then begin
    c.ages.(!found) <- c.clock;
    false
  end
  else begin
    c.lines.(!victim) <- line;
    c.ages.(!victim) <- c.clock;
    true
  end

type t = { acc : int array; mis : int array }

let run ?(cache_bytes = 64 * 1024) ?(assoc = 4) ?(line_size = 64) p data =
  let n = Program.max_ref_id p + 1 in
  let t = { acc = Array.make n 0; mis = Array.make n 0 } in
  let c = cache ~cache_bytes ~assoc ~line_size in
  let note ref_id addr =
    let miss = access c addr in
    if ref_id > 0 && ref_id < n then begin
      t.acc.(ref_id) <- t.acc.(ref_id) + 1;
      if miss then t.mis.(ref_id) <- t.mis.(ref_id) + 1
    end
  in
  let emit =
    {
      Exec.null_emitter with
      e_load = (fun ~ref_id ~addr _ _ -> note ref_id addr; -1);
      e_store = (fun ~ref_id ~addr _ _ -> note ref_id addr; -1);
    }
  in
  Exec.run ~emit p (Data.copy data);
  t

let accesses t id = if id >= 0 && id < Array.length t.acc then t.acc.(id) else 0
let misses t id = if id >= 0 && id < Array.length t.mis then t.mis.(id) else 0

let miss_rate t id =
  let a = accesses t id in
  if a = 0 then 1.0 else float_of_int (misses t id) /. float_of_int a
