type kind = Int_op | Fp_op | Load | Store | Branch | Barrier_op | Prefetch_op

let kind_code = function
  | Int_op -> 0
  | Fp_op -> 1
  | Load -> 2
  | Store -> 3
  | Branch -> 4
  | Barrier_op -> 5
  | Prefetch_op -> 6

let kind_of_code = function
  | 0 -> Int_op
  | 1 -> Fp_op
  | 2 -> Load
  | 3 -> Store
  | 4 -> Branch
  | 5 -> Barrier_op
  | 6 -> Prefetch_op
  | c -> invalid_arg (Printf.sprintf "Trace.kind_of_code %d" c)

type t = {
  mutable n : int;
  mutable kinds : Bytes.t;
  mutable auxs : int array;
  mutable dep1s : int array;
  mutable dep2s : int array;
  mutable refs : int array;
}

let initial = 4096

let create () =
  {
    n = 0;
    kinds = Bytes.create initial;
    auxs = Array.make initial 0;
    dep1s = Array.make initial (-1);
    dep2s = Array.make initial (-1);
    refs = Array.make initial 0;
  }

let length t = t.n

let grow t =
  let cap = Array.length t.auxs in
  if t.n = cap then begin
    let ncap = cap * 2 in
    let kinds = Bytes.create ncap in
    Bytes.blit t.kinds 0 kinds 0 cap;
    t.kinds <- kinds;
    let extend a def =
      let fresh = Array.make ncap def in
      Array.blit a 0 fresh 0 cap;
      fresh
    in
    t.auxs <- extend t.auxs 0;
    t.dep1s <- extend t.dep1s (-1);
    t.dep2s <- extend t.dep2s (-1);
    t.refs <- extend t.refs 0
  end

let bad_dep i d =
  invalid_arg
    (Printf.sprintf
       "Trace.push: instruction %d depends on %d (must be -1 or an earlier \
        index)"
       i d)

let push t ~kind ~aux ~dep1 ~dep2 ~ref_ =
  let i = t.n in
  (* the simulator's consumer lists rely on every dependence pointing
     backwards: a forward or self edge would never be released *)
  if dep1 < -1 || dep1 >= i then bad_dep i dep1;
  if dep2 < -1 || dep2 >= i then bad_dep i dep2;
  grow t;
  Bytes.unsafe_set t.kinds i (Char.chr (kind_code kind));
  t.auxs.(i) <- aux;
  t.dep1s.(i) <- dep1;
  t.dep2s.(i) <- dep2;
  t.refs.(i) <- ref_;
  t.n <- i + 1;
  i

let kind t i = kind_of_code (Char.code (Bytes.unsafe_get t.kinds i))
let aux t i = t.auxs.(i)
let dep1 t i = t.dep1s.(i)
let dep2 t i = t.dep2s.(i)
let ref_id t i = t.refs.(i)

let count_kind t k =
  let c = kind_code k in
  let acc = ref 0 in
  for i = 0 to t.n - 1 do
    if Char.code (Bytes.unsafe_get t.kinds i) = c then incr acc
  done;
  !acc
