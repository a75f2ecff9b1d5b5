(* Second-chance eviction; the policy is described in cache.mli. It runs
   as a clock: the ring is three slot arrays (key, value, mark) and the
   hand is the oldest slot. While the table fills, slots are taken in
   order and the hand stays at 0; once it is full, an insertion advances
   the hand past marked slots, clearing them, and reuses the first
   unmarked one. The table maps each key to its slot. *)

type ('k, 'v) t = {
  tbl : ('k, int) Hashtbl.t;
  mutable keys : 'k array;
  mutable vals : 'v array;
  mutable marks : Bytes.t;
  mutable hand : int;
  cap : int;
}

let create ~cap =
  { tbl = Hashtbl.create 64; keys = [||]; vals = [||]; marks = Bytes.empty;
    hand = 0; cap = max 1 cap }

let find c k =
  match Hashtbl.find c.tbl k with
  | i ->
    Bytes.set c.marks i '\001';
    Some c.vals.(i)
  | exception Not_found -> None

let mem c k = Hashtbl.mem c.tbl k

(* Double the slot arrays, up to [cap]; the new cells hold [k] and [v]
   until a binding takes them. *)
let grow c k v =
  let n = Array.length c.keys in
  let m = min c.cap (max 16 (2 * n)) in
  let keys = Array.make m k and vals = Array.make m v in
  Array.blit c.keys 0 keys 0 n;
  Array.blit c.vals 0 vals 0 n;
  c.keys <- keys;
  c.vals <- vals;
  c.marks <- Bytes.extend c.marks 0 (m - n);
  Bytes.fill c.marks n (m - n) '\000'

(* Terminates within one turn of the hand plus one step: the turn clears
   every mark it passes. *)
let rec victim c =
  let i = c.hand in
  c.hand <- (if i + 1 = c.cap then 0 else i + 1);
  if Bytes.get c.marks i = '\000' then i
  else begin
    Bytes.set c.marks i '\000';
    victim c
  end

(* [add], reporting whether an entry was evicted to make room. *)
let insert c k v =
  if Hashtbl.mem c.tbl k then false
  else begin
    let n = Hashtbl.length c.tbl in
    let full = n >= c.cap in
    let i =
      if full then begin
        let i = victim c in
        Hashtbl.remove c.tbl c.keys.(i);
        i
      end
      else begin
        if n = Array.length c.keys then grow c k v;
        n
      end
    in
    c.keys.(i) <- k;
    c.vals.(i) <- v;
    Hashtbl.add c.tbl k i;
    full
  end

let add c k v = ignore (insert c k v)
let length c = Hashtbl.length c.tbl
let fold f c acc = Hashtbl.fold (fun k i acc -> f k c.vals.(i) acc) c.tbl acc

let clear c =
  Hashtbl.reset c.tbl;
  c.keys <- [||];
  c.vals <- [||];
  c.marks <- Bytes.empty;
  c.hand <- 0

type ('k, 'v) cache = ('k, 'v) t

module Shared = struct
  (* Nothing inside a stripe's critical section can raise, so the locks
     are taken and released without a handler. *)
  type ('k, 'v) t = {
    locks : Mutex.t array;
    stripes : ('k, 'v) cache array;
    stripe_of : 'k -> int;
    evictions : int Atomic.t;
  }

  let create ~stripes ~cap ~stripe_of =
    let cap = max 1 cap in
    let n = max 1 (min stripes cap) in
    { locks = Array.init n (fun _ -> Mutex.create ());
      stripes = Array.init n (fun _ -> create ~cap:(cap / n));
      stripe_of;
      evictions = Atomic.make 0 }

  let index t k = (t.stripe_of k land max_int) mod Array.length t.stripes

  let find t k =
    let i = index t k in
    Mutex.lock t.locks.(i);
    let r = find t.stripes.(i) k in
    Mutex.unlock t.locks.(i);
    r

  let add t k v =
    let i = index t k in
    Mutex.lock t.locks.(i);
    let evicted = insert t.stripes.(i) k v in
    Mutex.unlock t.locks.(i);
    if evicted then Atomic.incr t.evictions

  let each_locked t f =
    Array.iteri
      (fun i s ->
        Mutex.lock t.locks.(i);
        f s;
        Mutex.unlock t.locks.(i))
      t.stripes

  let length t =
    let n = ref 0 in
    each_locked t (fun s -> n := !n + length s);
    !n

  let evictions t = Atomic.get t.evictions
  let clear t = each_locked t clear
end
