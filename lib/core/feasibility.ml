let ok (care : Care.t) =
  Array.for_all (function Care.Conflict -> false | Care.Unseen | Care.Value _ -> true)
    care.Care.table

let check ~sigs ~node ~divisors ~rounds =
  ok (Care.scan ~sigs ~node ~divisors ~rounds ())

let filter ?pool ~sigs ~node ~sets ~rounds () =
  let n = Array.length sets in
  let scanned =
    (* Per-set scans are pure functions of the (read-only) signatures, so
       fanning them across the pool preserves the result exactly; the array
       keeps them in submission order. *)
    Parallel.Chunk.map ?pool ~n (fun i ->
        let divisors = sets.(i) in
        let care = Care.scan ~sigs ~node ~divisors ~rounds () in
        if ok care then Some (divisors, care) else None)
  in
  Array.to_list scanned |> List.filter_map Fun.id
