(* Binary min-heap over three parallel int arrays: entry [k] has priority
   [prio.(k)], insertion stamp [seq.(k)] (for FIFO ties) and value
   [value.(k)]. Int arrays need no write barrier, and nothing is boxed
   per entry. *)
type t = {
  mutable prio : int array;
  mutable seq : int array;
  mutable value : int array;
  mutable size : int;
  mutable next_seq : int;
}

let create () =
  { prio = [||]; seq = [||]; value = [||]; size = 0; next_seq = 0 }

let is_empty t = t.size = 0
let length t = t.size

let grow t =
  let cap = Array.length t.prio in
  if t.size = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let extend a =
      let fresh = Array.make ncap 0 in
      Array.blit a 0 fresh 0 t.size;
      fresh
    in
    t.prio <- extend t.prio;
    t.seq <- extend t.seq;
    t.value <- extend t.value
  end

(* does (p, s) order before entry [k]? *)
let before t p s k = p < t.prio.(k) || (p = t.prio.(k) && s < t.seq.(k))

let put t k p s v =
  t.prio.(k) <- p;
  t.seq.(k) <- s;
  t.value.(k) <- v

let move t ~src ~dst = put t dst t.prio.(src) t.seq.(src) t.value.(src)

let push t p v =
  grow t;
  let s = t.next_seq in
  t.next_seq <- s + 1;
  (* sift up: move parents down into the hole until (p, s) fits *)
  let i = ref t.size in
  t.size <- t.size + 1;
  while !i > 0 && before t p s ((!i - 1) / 2) do
    let parent = (!i - 1) / 2 in
    move t ~src:parent ~dst:!i;
    i := parent
  done;
  put t !i p s v

(* Remove the root: sift the last entry down from the top (stamps are
   unique, so no two entries compare equal). *)
let drop_min t =
  if t.size > 0 then begin
    let last = t.size - 1 in
    t.size <- last;
    if last > 0 then begin
      let p = t.prio.(last) and s = t.seq.(last) and v = t.value.(last) in
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 in
        if l >= last then continue := false
        else begin
          let r = l + 1 in
          let c =
            if r < last && before t t.prio.(r) t.seq.(r) l then r else l
          in
          if before t p s c then continue := false
          else begin
            move t ~src:c ~dst:!i;
            i := c
          end
        end
      done;
      put t !i p s v
    end
  end

let min_prio t = if t.size = 0 then max_int else t.prio.(0)

let min_value t =
  if t.size = 0 then invalid_arg "Pqueue.min_value: empty";
  t.value.(0)

let peek t = if t.size = 0 then None else Some (t.prio.(0), t.value.(0))

let pop t =
  if t.size = 0 then None
  else begin
    let top = (t.prio.(0), t.value.(0)) in
    drop_min t;
    Some top
  end
