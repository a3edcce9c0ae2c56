include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  (* keys are line numbers: consecutive lines land in consecutive buckets *)
  let hash k = k land max_int
end)
