type 'a entry = { prio : int; seq : int; value : 'a }

type 'a t = {
  mutable data : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { data = [||]; size = 0; next_seq = 0 }

let is_empty t = t.size = 0
let length t = t.size

let less a b = a.prio < b.prio || (a.prio = b.prio && a.seq < b.seq)

let grow t =
  let cap = Array.length t.data in
  if t.size = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let fresh = Array.make ncap t.data.(0) in
    Array.blit t.data 0 fresh 0 t.size;
    t.data <- fresh
  end

let push t prio value =
  let e = { prio; seq = t.next_seq; value } in
  t.next_seq <- t.next_seq + 1;
  if Array.length t.data = 0 then t.data <- Array.make 16 e;
  grow t;
  t.data.(t.size) <- e;
  t.size <- t.size + 1;
  (* sift up *)
  let i = ref (t.size - 1) in
  while
    !i > 0
    &&
    let parent = (!i - 1) / 2 in
    less t.data.(!i) t.data.(parent)
  do
    let parent = (!i - 1) / 2 in
    let tmp = t.data.(parent) in
    t.data.(parent) <- t.data.(!i);
    t.data.(!i) <- tmp;
    i := parent
  done

let sift_down t =
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < t.size && less t.data.(l) t.data.(!smallest) then smallest := l;
    if r < t.size && less t.data.(r) t.data.(!smallest) then smallest := r;
    if !smallest = !i then continue := false
    else begin
      let tmp = t.data.(!smallest) in
      t.data.(!smallest) <- t.data.(!i);
      t.data.(!i) <- tmp;
      i := !smallest
    end
  done

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.data.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.data.(0) <- t.data.(t.size);
      sift_down t
    end;
    Some (top.prio, top.value)
  end

let peek t = if t.size = 0 then None else Some (t.data.(0).prio, t.data.(0).value)

let min_prio t = if t.size = 0 then max_int else t.data.(0).prio

let min_value t =
  if t.size = 0 then invalid_arg "Pqueue.min_value: empty";
  t.data.(0).value

let drop_min t =
  if t.size > 0 then begin
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.data.(0) <- t.data.(t.size);
      sift_down t
    end
  end
