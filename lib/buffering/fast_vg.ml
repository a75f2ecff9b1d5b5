exception Infeasible of string

let last_count = ref 0
let last_inserted () = !last_count

let insert ?check tree ~buf ?(step = 100_000) ?(buckets = 48) ?(forbidden = fun _ -> false) ~cap_ceiling () =
  let locs =
    try
      Dp.run ?check tree { Dp.buf; step; ceiling = cap_ceiling; buckets = Some buckets; forbidden }
    with Dp.Infeasible msg -> raise (Infeasible msg)
  in
  last_count := List.length locs;
  Dp.apply tree buf locs
