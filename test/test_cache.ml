(* Analysis.Cache: the second-chance table against a list-based
   reference model, and the striped shared table under two domains. *)

module Cache = Analysis.Cache

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* The reference policy: the ring as a list, oldest first, of
   (key, value, mark). *)
module Model = struct
  type t = { mutable ring : (int * int * bool ref) list; cap : int }

  let create cap = { ring = []; cap = max 1 cap }
  let entry m k = List.find_opt (fun (k', _, _) -> k' = k) m.ring
  let mem m k = Option.is_some (entry m k)

  let find m k =
    Option.map
      (fun (_, v, used) ->
        used := true;
        v)
      (entry m k)

  let rec evict m =
    match m.ring with
    | ((_, _, used) as e) :: rest when !used ->
      used := false;
      m.ring <- rest @ [ e ];
      evict m
    | _ :: rest -> m.ring <- rest
    | [] -> ()

  let add m k v =
    if not (mem m k) then begin
      if List.length m.ring >= m.cap then evict m;
      m.ring <- m.ring @ [ (k, v, ref false) ]
    end

  let bindings m = List.sort compare (List.map (fun (k, v, _) -> (k, v)) m.ring)
end

type op = Find of int | Mem of int | Add of int * int | Clear

let pp_op = function
  | Find k -> Printf.sprintf "find %d" k
  | Mem k -> Printf.sprintf "mem %d" k
  | Add (k, v) -> Printf.sprintf "add %d %d" k v
  | Clear -> "clear"

let gen_op =
  let key = QCheck.Gen.int_bound 11 in
  QCheck.Gen.(
    frequency
      [ (5, map2 (fun k v -> Add (k, v)) key (int_bound 1000));
        (4, map (fun k -> Find k) key);
        (2, map (fun k -> Mem k) key);
        (1, return Clear) ])

let arb_case =
  QCheck.make
    ~print:(fun (cap, ops) ->
      Printf.sprintf "cap %d: %s" cap (String.concat "; " (List.map pp_op ops)))
    QCheck.Gen.(pair (int_range 1 8) (list_size (int_range 0 200) gen_op))

let bindings c = List.sort compare (Cache.fold (fun k v acc -> (k, v) :: acc) c [])

(* After every operation: the same bindings as the model and at most
   [cap] of them. After an [add]: the key is present, and when some
   entry was unmarked before it, every marked entry survived. *)
let model_agrees (cap, ops) =
  let c = Cache.create ~cap and m = Model.create cap in
  List.for_all
    (fun op ->
      let ok =
        match op with
        | Find k -> Cache.find c k = Model.find m k
        | Mem k -> Cache.mem c k = Model.mem m k
        | Add (k, v) ->
          let marked =
            List.filter_map (fun (k, _, u) -> if !u then Some k else None) m.ring
          in
          let some_cold = List.exists (fun (_, _, u) -> not !u) m.ring in
          Cache.add c k v;
          Model.add m k v;
          Cache.mem c k
          && ((not some_cold) || List.for_all (Cache.mem c) marked)
        | Clear ->
          Cache.clear c;
          m.ring <- [];
          true
      in
      ok && Cache.length c <= cap && bindings c = Model.bindings m)
    ops

let prop_model =
  QCheck.Test.make ~name:"second chance matches the list model" ~count:500
    arb_case model_agrees

(* Two domains add disjoint keys and read some back: the table ends
   full, within its cap, and every insertion past the cap is one
   counted eviction. *)
let test_shared_two_domains () =
  let cap = 64 and per = 2_000 in
  let t = Cache.Shared.create ~stripes:4 ~cap ~stripe_of:Fun.id in
  let worker d () =
    for i = 0 to per - 1 do
      Cache.Shared.add t ((d * per) + i) i;
      ignore (Cache.Shared.find t ((d * per) + (i / 2)))
    done
  in
  List.iter Domain.join (List.init 2 (fun d -> Domain.spawn (worker d)));
  check_int "full at the cap" cap (Cache.Shared.length t);
  check_int "one eviction per insertion past the cap" ((2 * per) - cap)
    (Cache.Shared.evictions t);
  Cache.Shared.clear t;
  check_int "clear empties" 0 (Cache.Shared.length t)

(* Fewer entries than stripes: the cap still bounds the whole table. *)
let test_shared_small_cap () =
  let t = Cache.Shared.create ~stripes:16 ~cap:4 ~stripe_of:Fun.id in
  for k = 0 to 99 do
    Cache.Shared.add t k k
  done;
  check_bool "within the cap" true (Cache.Shared.length t <= 4);
  check_int "first writer wins" 99
    (Cache.Shared.add t 99 0;
     Option.value ~default:(-1) (Cache.Shared.find t 99))

let () =
  Alcotest.run "cache"
    [
      ("clock", [ QCheck_alcotest.to_alcotest prop_model ]);
      ("shared",
       [ Alcotest.test_case "two domains" `Quick test_shared_two_domains;
         Alcotest.test_case "cap below stripes" `Quick test_shared_small_cap ]);
    ]
