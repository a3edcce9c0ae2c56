let mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

let geomean xs =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let log_sum = Array.fold_left (fun acc x -> acc +. log x) 0.0 xs in
    exp (log_sum /. float_of_int n)
  end

let stddev xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let m = mean xs in
    let var = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs in
    sqrt (var /. float_of_int n)
  end

let percentile xs p =
  if Array.length xs = 0 then invalid_arg "Stats.percentile: empty array";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
  end

let minimum xs = Array.fold_left min infinity xs
let maximum xs = Array.fold_left max neg_infinity xs

module Acc = struct
  type t = {
    mutable count : int;
    mutable sum : float;
    mutable min_v : float;
    mutable max_v : float;
  }

  let create () = { count = 0; sum = 0.0; min_v = infinity; max_v = neg_infinity }

  let add t x =
    t.count <- t.count + 1;
    t.sum <- t.sum +. x;
    if x < t.min_v then t.min_v <- x;
    if x > t.max_v then t.max_v <- x

  let count t = t.count
  let sum t = t.sum
  let mean t = if t.count = 0 then 0.0 else t.sum /. float_of_int t.count
  let min t = t.min_v
  let max t = t.max_v
end

module Histogram = struct
  type t = { buckets : float array; mutable total : float }

  let create n =
    assert (n > 0);
    { buckets = Array.make n 0.0; total = 0.0 }

  let add_weighted t v w =
    let n = Array.length t.buckets in
    let i = if v < 0 then 0 else if v >= n then n - 1 else v in
    t.buckets.(i) <- t.buckets.(i) +. w;
    t.total <- t.total +. w

  let add t v = add_weighted t v 1.0

  let total t = t.total

  let fraction_at_least t k =
    if t.total = 0.0 then 0.0
    else begin
      let acc = ref 0.0 in
      let n = Array.length t.buckets in
      for i = max 0 k to n - 1 do
        acc := !acc +. t.buckets.(i)
      done;
      !acc /. t.total
    end

  let bucket t i = t.buckets.(i)
end
