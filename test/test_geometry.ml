open Geometry

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------- Point ---------- *)

let test_point_dist () =
  check_int "manhattan" 7 (Point.dist (Point.make 0 0) (Point.make 3 4));
  check_int "self" 0 (Point.dist (Point.make 5 5) (Point.make 5 5));
  check_int "negative coords" 10 (Point.dist (Point.make (-3) (-2)) (Point.make 2 3))

let test_point_midpoint () =
  let m = Point.midpoint (Point.make 0 0) (Point.make 10 6) in
  check_int "mid x" 5 m.Point.x;
  check_int "mid y" 3 m.Point.y;
  (* Odd spans round towards the first argument. *)
  let m = Point.midpoint (Point.make 0 0) (Point.make 3 3) in
  check_int "odd x" 1 m.Point.x

let test_point_aligned () =
  check_bool "x aligned" true (Point.is_aligned (Point.make 1 5) (Point.make 1 9));
  check_bool "y aligned" true (Point.is_aligned (Point.make 2 7) (Point.make 9 7));
  check_bool "not aligned" false (Point.is_aligned (Point.make 1 2) (Point.make 3 4))

(* ---------- Rect ---------- *)

let r00_44 = Rect.make ~lx:0 ~ly:0 ~hx:4 ~hy:4

let test_rect_basic () =
  check_int "width" 4 (Rect.width r00_44);
  check_int "area" 16 (Rect.area r00_44);
  check_bool "contains corner" true (Rect.contains r00_44 (Point.make 0 0));
  check_bool "contains_open corner" false (Rect.contains_open r00_44 (Point.make 0 0));
  check_bool "contains_open inside" true (Rect.contains_open r00_44 (Point.make 2 2));
  Alcotest.check_raises "inverted" (Invalid_argument "Rect.make: inverted bounds (3,0)-(1,4)")
    (fun () -> ignore (Rect.make ~lx:3 ~ly:0 ~hx:1 ~hy:4))

let test_rect_intersect () =
  let b = Rect.make ~lx:2 ~ly:2 ~hx:6 ~hy:6 in
  (match Rect.intersect r00_44 b with
  | Some i ->
    check_int "ix" 2 i.Rect.lx;
    check_int "ihx" 4 i.Rect.hx
  | None -> Alcotest.fail "expected intersection");
  let far = Rect.make ~lx:10 ~ly:10 ~hx:12 ~hy:12 in
  check_bool "disjoint" true (Rect.intersect r00_44 far = None);
  (* Touching rectangles: degenerate intersection, not open overlap. *)
  let touch = Rect.make ~lx:4 ~ly:0 ~hx:8 ~hy:4 in
  check_bool "abuts" true (Rect.abuts r00_44 touch);
  check_bool "no open overlap" false (Rect.overlaps_open r00_44 touch)

let test_rect_dist_clamp () =
  check_int "inside dist" 0 (Rect.dist_to_point r00_44 (Point.make 1 1));
  check_int "outside dist" 5 (Rect.dist_to_point r00_44 (Point.make 7 6));
  let c = Rect.clamp r00_44 (Point.make 7 6) in
  check_int "clamp x" 4 c.Point.x;
  check_int "clamp y" 4 c.Point.y

let test_compound_groups () =
  let a = Rect.make ~lx:0 ~ly:0 ~hx:4 ~hy:4 in
  let b = Rect.make ~lx:4 ~ly:1 ~hx:8 ~hy:3 in (* abuts a on an edge *)
  let c = Rect.make ~lx:20 ~ly:20 ~hx:22 ~hy:22 in
  let groups = Rect.compound_groups [ a; b; c ] in
  check_int "two groups" 2 (List.length groups);
  let sizes = List.sort compare (List.map List.length groups) in
  Alcotest.(check (list int)) "sizes" [ 1; 2 ] sizes;
  (* Corner-only contact does not merge. *)
  let d = Rect.make ~lx:4 ~ly:4 ~hx:8 ~hy:8 in
  let groups = Rect.compound_groups [ a; d ] in
  check_int "corner contact separate" 2 (List.length groups)

(* ---------- Segment and L-shapes ---------- *)

let test_segment_basic () =
  let s = Segment.make (Point.make 0 0) (Point.make 10 0) in
  check_int "length" 10 (Segment.length s);
  check_bool "horizontal" true (Segment.is_horizontal s);
  check_bool "contains" true (Segment.contains s (Point.make 5 0));
  check_bool "not contains" false (Segment.contains s (Point.make 5 1));
  Alcotest.check_raises "diagonal rejected"
    (Invalid_argument "Segment.make: (0,0) and (1,1) are not axis-aligned")
    (fun () -> ignore (Segment.make (Point.make 0 0) (Point.make 1 1)))

let test_segment_overlap () =
  let r = Rect.make ~lx:2 ~ly:(-1) ~hx:5 ~hy:1 in
  let s = Segment.make (Point.make 0 0) (Point.make 10 0) in
  check_int "open overlap" 3 (Segment.overlap_with_rect s r);
  (* Along the boundary: no open overlap. *)
  let s_edge = Segment.make (Point.make 0 1) (Point.make 10 1) in
  check_int "boundary no overlap" 0 (Segment.overlap_with_rect s_edge r)

let test_lshape () =
  let p = Point.make 0 0 and q = Point.make 10 10 in
  let bend_xy = Segment.L.bend Segment.L.XY p q in
  check_int "XY bend x" 10 bend_xy.Point.x;
  check_int "XY bend y" 0 bend_xy.Point.y;
  check_int "XY segs" 2 (List.length (Segment.L.segments Segment.L.XY p q));
  (* Obstacle on the XY path only: best flips to YX. *)
  let obs = Rect.make ~lx:4 ~ly:(-2) ~hx:6 ~hy:2 in
  let best, overlap = Segment.L.best p q [ obs ] in
  check_bool "best is YX" true (best = Segment.L.YX);
  check_int "no overlap" 0 overlap

(* ---------- Manhattan arcs ---------- *)

let test_marc_basic () =
  let a = Marc.of_point (Point.make 0 0) in
  let b = Marc.of_point (Point.make 10 0) in
  check_int "dist points" 10 (Marc.dist a b);
  let arc = Marc.of_arc (Point.make 0 0) (Point.make 5 5) in
  check_int "dist to on-arc point" 0 (Marc.dist_to_point arc (Point.make 3 3));
  check_bool "is_arc" true (Marc.is_arc arc);
  Alcotest.check_raises "non-arc"
    (Invalid_argument "Marc.of_arc: (0,0)-(5,3) is not a Manhattan arc")
    (fun () -> ignore (Marc.of_arc (Point.make 0 0) (Point.make 5 3)))

let test_marc_merging () =
  (* Classic DME: TRRs with radii summing to the distance intersect. *)
  let a = Marc.of_point (Point.make 0 0) in
  let b = Marc.of_point (Point.make 10 0) in
  let d = Marc.dist a b in
  let ra = 3 in
  (match Marc.intersect (Marc.expand a ra) (Marc.expand b (d - ra)) with
  | Some ms ->
    check_int "ms within ra of a" ra (Marc.dist a ms);
    check_int "ms within rb of b" (d - ra) (Marc.dist b ms)
  | None -> Alcotest.fail "merging segment must exist");
  (* Disjoint when radii fall short. *)
  check_bool "short radii disjoint" true
    (Marc.intersect (Marc.expand a 2) (Marc.expand b 2) = None)

let test_marc_closest () =
  let arc = Marc.of_arc (Point.make 0 0) (Point.make 6 6) in
  let c = Marc.closest_to arc (Point.make 10 0) in
  check_int "closest on arc" 0 (Marc.dist_to_point arc c);
  check_int "distance preserved" (Marc.dist_to_point arc (Point.make 10 0))
    (Point.dist (Point.make 10 0) c)

let marc_qcheck =
  QCheck.Test.make ~name:"marc: closest_to is within 1nm of region and optimal"
    ~count:300
    QCheck.(quad (int_range (-500) 500) (int_range (-500) 500)
              (int_range (-500) 500) (int_range 0 200))
    (fun (x, y, px, r) ->
      let core = Marc.of_arc (Point.make x y) (Point.make (x + 60) (y + 60)) in
      let region = Marc.expand core r in
      let p = Point.make px (y - 300) in
      let c = Marc.closest_to region p in
      (* parity snap may leave the region by at most 1 nm *)
      Marc.dist_to_point region c <= 1
      && Point.dist p c <= Marc.dist_to_point region p + 2)

(* ---------- Contour ---------- *)

let square = Rect.make ~lx:0 ~ly:0 ~hx:10 ~hy:10

let test_contour_square () =
  let c = Contour.of_rects [ square ] in
  check_int "perimeter" 40 (Contour.perimeter c);
  check_int "vertices" 4 (List.length (Contour.vertices c));
  let s, p = Contour.project c (Point.make 5 (-3)) in
  check_int "projected on bottom" 0 p.Point.y;
  check_int "x kept" 5 p.Point.x;
  let q = Contour.point_at c s in
  check_bool "roundtrip" true (Point.equal p q)

let test_contour_l_union () =
  (* L-shaped union of two rects: outer contour only. *)
  let a = Rect.make ~lx:0 ~ly:0 ~hx:10 ~hy:4 in
  let b = Rect.make ~lx:0 ~ly:4 ~hx:4 ~hy:10 in
  let c = Contour.of_rects [ a; b ] in
  check_int "L perimeter" 40 (Contour.perimeter c);
  check_int "L vertices" 6 (List.length (Contour.vertices c));
  check_bool "contains interior" true (Contour.contains c (Point.make 2 2));
  check_bool "excludes notch" false (Contour.contains c (Point.make 8 8))

let test_contour_walks () =
  let c = Contour.of_rects [ square ] in
  let s1, _ = Contour.project c (Point.make 0 0) in
  let s2, _ = Contour.project c (Point.make 10 10) in
  check_int "half perimeter both ways" 20 (Contour.dist_along c s1 s2);
  let path = Contour.shortest_path c s1 s2 in
  let len =
    let rec go = function
      | a :: b :: rest -> Point.dist a b + go (b :: rest)
      | _ -> 0
    in
    go path
  in
  check_int "path length matches" 20 len;
  check_int "fwd + bwd = perimeter" 40
    (Contour.dist_forward c s1 s2 + Contour.dist_forward c s2 s1)

let test_contour_rejects () =
  Alcotest.check_raises "empty" (Invalid_argument "Contour.of_rects: empty list")
    (fun () -> ignore (Contour.of_rects []));
  let far = Rect.make ~lx:100 ~ly:100 ~hx:110 ~hy:110 in
  Alcotest.check_raises "disconnected"
    (Invalid_argument "Contour.of_rects: rectangles do not form one compound")
    (fun () -> ignore (Contour.of_rects [ square; far ]))

let contour_qcheck =
  QCheck.Test.make ~name:"contour: project lands on boundary, point_at inverts"
    ~count:200
    QCheck.(pair (int_range (-50) 150) (int_range (-50) 150))
    (fun (x, y) ->
      let a = Rect.make ~lx:0 ~ly:0 ~hx:60 ~hy:30 in
      let b = Rect.make ~lx:20 ~ly:30 ~hx:80 ~hy:70 in
      let c = Contour.of_rects [ a; b ] in
      let s, p = Contour.project c (Point.make x y) in
      let q = Contour.point_at c s in
      Point.equal p q && 0 <= s && s < Contour.perimeter c)

(* ---------- Grid (maze router) ---------- *)

let test_contour_plus_shape () =
  (* Plus-shaped union of three rects: 12 corners, correct perimeter. *)
  let rects =
    [ Rect.make ~lx:10 ~ly:0 ~hx:20 ~hy:30;
      Rect.make ~lx:0 ~ly:10 ~hx:10 ~hy:20;
      Rect.make ~lx:20 ~ly:10 ~hx:30 ~hy:20 ]
  in
  let c = Contour.of_rects rects in
  check_int "12 vertices" 12 (List.length (Contour.vertices c));
  check_int "perimeter" 120 (Contour.perimeter c);
  check_bool "center inside" true (Contour.contains c (Point.make 15 15));
  check_bool "notch outside" false (Contour.contains c (Point.make 2 2))

let test_contour_path_lengths () =
  let c = Contour.of_rects [ square ] in
  let s1, _ = Contour.project c (Point.make 3 0) in
  let s2, _ = Contour.project c (Point.make 10 7) in
  let poly_len path =
    let rec go = function
      | a :: b :: rest -> Point.dist a b + go (b :: rest)
      | _ -> 0
    in
    go path
  in
  check_int "forward path length" (Contour.dist_forward c s1 s2)
    (poly_len (Contour.path_between c `Forward s1 s2));
  check_int "backward path length" (Contour.dist_forward c s2 s1)
    (poly_len (Contour.path_between c `Backward s1 s2))

let test_marc_endpoints_center () =
  let arc = Marc.of_arc (Point.make 0 0) (Point.make 8 8) in
  let a, b = Marc.endpoints arc in
  check_int "endpoints on arc a" 0 (Marc.dist_to_point arc a);
  check_int "endpoints on arc b" 0 (Marc.dist_to_point arc b);
  check_bool "center within snap" true (Marc.dist_to_point arc (Marc.center arc) <= 1)

let test_rect_expand () =
  let r = Rect.make ~lx:10 ~ly:10 ~hx:20 ~hy:20 in
  let e = Rect.expand r 5 in
  check_int "expanded width" 20 (Rect.width e);
  (* over-shrink collapses to the centre point *)
  let s = Rect.expand r (-50) in
  check_int "collapsed" 0 (Rect.area s);
  check_bool "at centre" true (Point.equal (Rect.center r) (Rect.center s))

let test_bounding_box () =
  let bb =
    Rect.bounding_box
      [ Rect.make ~lx:5 ~ly:0 ~hx:6 ~hy:1; Rect.make ~lx:0 ~ly:7 ~hx:2 ~hy:9 ]
  in
  check_bool "covers both" true
    (Rect.contains bb (Point.make 5 0) && Rect.contains bb (Point.make 2 9))

let lshape_qcheck =
  QCheck.Test.make ~name:"L: both configs connect p to q with manhattan length"
    ~count:200
    QCheck.(quad (int_range (-100) 100) (int_range (-100) 100)
              (int_range (-100) 100) (int_range (-100) 100))
    (fun (px, py, qx, qy) ->
      let p = Point.make px py and q = Point.make qx qy in
      List.for_all
        (fun config ->
          let segs = Segment.L.segments config p q in
          let len = List.fold_left (fun a s -> a + Segment.length s) 0 segs in
          len = Point.dist p q)
        [ Segment.L.XY; Segment.L.YX ])

let test_route_free () =
  match Grid.route ~obstacles:[] ~src:(Point.make 0 0) ~dst:(Point.make 50 30) with
  | Some path ->
    check_int "free route is manhattan" 80 (Grid.path_length path);
    check_bool "starts at src" true (Point.equal (List.hd path) (Point.make 0 0))
  | None -> Alcotest.fail "route must exist"

let test_route_blocked () =
  (* Wall between src and dst forces a detour. *)
  let wall = Rect.make ~lx:20 ~ly:(-100) ~hx:30 ~hy:100 in
  let src = Point.make 0 0 and dst = Point.make 50 0 in
  match Grid.route ~obstacles:[ wall ] ~src ~dst with
  | Some path ->
    check_bool "longer than manhattan" true (Grid.path_length path > 50);
    (* No segment crosses the wall interior. *)
    let rec ok = function
      | a :: b :: rest ->
        Segment.overlap_with_rect (Segment.make a b) wall = 0 && ok (b :: rest)
      | _ -> true
    in
    check_bool "avoids interior" true (ok path)
  | None -> Alcotest.fail "route must exist around a finite wall"

let test_route_escape () =
  (* Source strictly inside an obstacle escapes to its boundary. *)
  let obs = Rect.make ~lx:0 ~ly:0 ~hx:10 ~hy:10 in
  match Grid.route ~obstacles:[ obs ] ~src:(Point.make 5 5) ~dst:(Point.make 30 5) with
  | Some path -> check_bool "starts at src" true (Point.equal (List.hd path) (Point.make 5 5))
  | None -> Alcotest.fail "escape route must exist"

let grid_qcheck =
  QCheck.Test.make ~name:"grid: route legal and no shorter than manhattan"
    ~count:100
    QCheck.(pair (pair (int_range 0 19) (int_range 0 19)) (pair small_nat small_nat))
    (fun ((ax, ay), (bx, by)) ->
      (* terminals outside the obstacles: escape stubs may legally cross *)
      let src = Point.make ax ay and dst = Point.make (bx + 120) (by + 120) in
      let obstacles =
        [ Rect.make ~lx:40 ~ly:20 ~hx:80 ~hy:90;
          Rect.make ~lx:80 ~ly:60 ~hx:110 ~hy:100 ]
      in
      match Grid.route ~obstacles ~src ~dst with
      | None -> false
      | Some path ->
        let rec legal = function
          | a :: b :: rest ->
            List.for_all
              (fun r -> Segment.overlap_with_rect (Segment.make a b) r = 0)
              obstacles
            && legal (b :: rest)
          | _ -> true
        in
        Grid.path_length path >= Point.dist src dst && legal path)

(* ---------- Bucket ---------- *)

let test_bucket_basic () =
  let b = Bucket.create ~cell:10 in
  Bucket.add b 1 (Point.make 0 0);
  Bucket.add b 2 (Point.make 100 100);
  Bucket.add b 3 (Point.make 5 5);
  (match Bucket.nearest b (Point.make 1 1) with
  | Some (id, _) -> check_int "nearest id" 1 id
  | None -> Alcotest.fail "nearest must exist");
  (match Bucket.nearest b ~exclude:(fun i -> i = 1) (Point.make 1 1) with
  | Some (id, _) -> check_int "excluded nearest" 3 id
  | None -> Alcotest.fail "nearest must exist");
  Bucket.remove b 3;
  check_int "size after remove" 2 (Bucket.size b);
  check_bool "mem" false (Bucket.mem b 3);
  (* Two populated cells cap the ring search at ring 9. By then only the
     farther (848,0) on ring 8, at distance 983, has been seen; the nearer
     (960,113), at 982, sits on ring 10. *)
  let b = Bucket.create ~cell:64 in
  Bucket.add b 0 (Point.make 960 113);
  Bucket.add b 1 (Point.make 848 0);
  match Bucket.nearest b (Point.make 321 456) with
  | Some (id, q) ->
    check_int "nearest past the ring limit" 0 id;
    check_int "its distance" 982 (Point.dist (Point.make 321 456) q)
  | None -> Alcotest.fail "nearest must exist"

let bucket_qcheck =
  QCheck.Test.make ~name:"bucket: nearest matches brute force" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 40) (pair (int_range 0 1000) (int_range 0 1000)))
    (fun pts ->
      let b = Bucket.create ~cell:64 in
      List.iteri (fun i (x, y) -> Bucket.add b i (Point.make x y)) pts;
      let query = Point.make 321 456 in
      match Bucket.nearest b query with
      | None -> pts = []
      | Some (_, found) ->
        let best =
          List.fold_left
            (fun acc (x, y) -> min acc (Point.dist query (Point.make x y)))
            max_int pts
        in
        Point.dist query found = best)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "geometry"
    [
      ("listx",
       [ Alcotest.test_case "last" `Quick (fun () ->
             Alcotest.(check int) "last of many" 3
               (Listx.last ~what:"t" [ 1; 2; 3 ]);
             Alcotest.(check int) "last of one" 7 (Listx.last ~what:"t" [ 7 ]);
             Alcotest.(check bool) "empty names the caller" true
               (match Listx.last ~what:"caller-site" [] with
               | exception Invalid_argument msg ->
                 String.length msg > 0
                 && String.sub msg 0 11 = "caller-site"
               | _ -> false)) ]);
      ("point",
       [ Alcotest.test_case "dist" `Quick test_point_dist;
         Alcotest.test_case "midpoint" `Quick test_point_midpoint;
         Alcotest.test_case "aligned" `Quick test_point_aligned ]);
      ("rect",
       [ Alcotest.test_case "basic" `Quick test_rect_basic;
         Alcotest.test_case "intersect/abut" `Quick test_rect_intersect;
         Alcotest.test_case "dist/clamp" `Quick test_rect_dist_clamp;
         Alcotest.test_case "compound groups" `Quick test_compound_groups;
         Alcotest.test_case "expand/shrink" `Quick test_rect_expand;
         Alcotest.test_case "bounding box" `Quick test_bounding_box ]);
      ("segment",
       [ Alcotest.test_case "basic" `Quick test_segment_basic;
         Alcotest.test_case "overlap" `Quick test_segment_overlap;
         Alcotest.test_case "L-shapes" `Quick test_lshape;
         q lshape_qcheck ]);
      ("marc",
       [ Alcotest.test_case "basic" `Quick test_marc_basic;
         Alcotest.test_case "merging segments" `Quick test_marc_merging;
         Alcotest.test_case "closest" `Quick test_marc_closest;
         Alcotest.test_case "endpoints/center" `Quick test_marc_endpoints_center;
         q marc_qcheck ]);
      ("contour",
       [ Alcotest.test_case "square" `Quick test_contour_square;
         Alcotest.test_case "L union" `Quick test_contour_l_union;
         Alcotest.test_case "walks" `Quick test_contour_walks;
         Alcotest.test_case "rejects" `Quick test_contour_rejects;
         Alcotest.test_case "plus shape" `Quick test_contour_plus_shape;
         Alcotest.test_case "path lengths" `Quick test_contour_path_lengths;
         q contour_qcheck ]);
      ("grid",
       [ Alcotest.test_case "free" `Quick test_route_free;
         Alcotest.test_case "blocked" `Quick test_route_blocked;
         Alcotest.test_case "escape" `Quick test_route_escape;
         q grid_qcheck ]);
      ("bucket",
       [ Alcotest.test_case "basic" `Quick test_bucket_basic; q bucket_qcheck ]);
    ]
