type t = {
  assoc : int;
  sets : int;
  shift : int;
  line : int;
  tags : int array;  (* line address or -1 *)
  vers : int array;
  ages : int array;
  mutable clock : int;
}

let log2 v =
  let rec go v acc = if v <= 1 then acc else go (v lsr 1) (acc + 1) in
  go v 0

let create ~bytes ~assoc ~line =
  let nlines = max assoc (bytes / line) in
  let sets = max 1 (nlines / assoc) in
  {
    assoc;
    sets;
    shift = log2 line;
    line;
    tags = Array.make (sets * assoc) (-1);
    vers = Array.make (sets * assoc) 0;
    ages = Array.make (sets * assoc) 0;
    clock = 0;
  }

let assoc t = t.assoc
let sets t = t.sets
let line_size t = t.line

let set_base t line = line mod t.sets * t.assoc

let lookup t ~version ~addr =
  let line = addr lsr t.shift in
  let base = set_base t line in
  t.clock <- t.clock + 1;
  let hit = ref false in
  for w = base to base + t.assoc - 1 do
    if t.tags.(w) = line && t.vers.(w) = version then begin
      hit := true;
      t.ages.(w) <- t.clock
    end
  done;
  !hit

(* side-effect-free probe: no LRU refresh, no clock tick — for
   inspection (tests) only, never on a simulated access path *)
let resident t ~version ~addr =
  let line = addr lsr t.shift in
  let base = set_base t line in
  let hit = ref false in
  for w = base to base + t.assoc - 1 do
    if t.tags.(w) = line && t.vers.(w) = version then hit := true
  done;
  !hit

let fill t ~version ~addr =
  let line = addr lsr t.shift in
  let base = set_base t line in
  t.clock <- t.clock + 1;
  (* reuse an existing copy of the line if present, else evict LRU *)
  let victim = ref base in
  let found = ref false in
  for w = base to base + t.assoc - 1 do
    if (not !found) && t.tags.(w) = line then begin
      victim := w;
      found := true
    end;
    if (not !found) && t.ages.(w) < t.ages.(!victim) then victim := w
  done;
  t.tags.(!victim) <- line;
  t.vers.(!victim) <- version;
  t.ages.(!victim) <- t.clock
