(** Tests for the 0/1 ILP branch-and-bound solver, including an exactness
    property against brute-force enumeration and a differential property
    against the closure-reading solver it replaced ({!Ilp_oracle}). *)

let mk ~n_items ~n_bins ~cost ~size ~capacity =
  { Ilp.n_items; n_bins; cost; size; capacity }

let test_trivial () =
  let p = mk ~n_items:0 ~n_bins:2 ~cost:(fun _ _ -> 0.0) ~size:(fun _ -> 1) ~capacity:(fun _ -> 1) in
  match Ilp.solve p with
  | Some { Ilp.assignment; objective } ->
    Alcotest.(check int) "empty assignment" 0 (Array.length assignment);
    Alcotest.(check (float 0.0)) "zero objective" 0.0 objective
  | None -> Alcotest.fail "empty problem is feasible"

let test_picks_cheapest () =
  let p =
    mk ~n_items:1 ~n_bins:3
      ~cost:(fun _ b -> [| 5.0; 1.0; 3.0 |].(b))
      ~size:(fun _ -> 1)
      ~capacity:(fun _ -> 10)
  in
  match Ilp.solve p with
  | Some { Ilp.assignment; objective } ->
    Alcotest.(check int) "cheapest bin" 1 assignment.(0);
    Alcotest.(check (float 1e-9)) "objective" 1.0 objective
  | None -> Alcotest.fail "feasible"

let test_capacity_forces_spread () =
  (* both items prefer bin 0, but it only fits one *)
  let p =
    mk ~n_items:2 ~n_bins:2
      ~cost:(fun _ b -> if b = 0 then 1.0 else 10.0)
      ~size:(fun _ -> 1)
      ~capacity:(fun b -> if b = 0 then 1 else 10)
  in
  match Ilp.solve p with
  | Some { Ilp.assignment; objective } ->
    Alcotest.(check bool) "one in each" true (assignment.(0) <> assignment.(1));
    Alcotest.(check (float 1e-9)) "objective 11" 11.0 objective
  | None -> Alcotest.fail "feasible"

let test_infeasible () =
  let p =
    mk ~n_items:2 ~n_bins:1 ~cost:(fun _ _ -> 1.0) ~size:(fun _ -> 2) ~capacity:(fun _ -> 3)
  in
  Alcotest.(check bool) "too small bin" true (Ilp.solve p = None)

let test_forbidden_assignment () =
  let p =
    mk ~n_items:1 ~n_bins:2
      ~cost:(fun _ b -> if b = 0 then infinity else 2.0)
      ~size:(fun _ -> 1)
      ~capacity:(fun _ -> 10)
  in
  match Ilp.solve p with
  | Some { Ilp.assignment; _ } -> Alcotest.(check int) "avoids forbidden bin" 1 assignment.(0)
  | None -> Alcotest.fail "bin 1 is allowed"

let test_enumerate_counts () =
  let p =
    mk ~n_items:2 ~n_bins:2 ~cost:(fun _ _ -> 1.0) ~size:(fun _ -> 1) ~capacity:(fun _ -> 10)
  in
  Alcotest.(check int) "2^2 assignments" 4 (List.length (Ilp.enumerate p))

let prop_solve_matches_enumeration =
  QCheck.Test.make ~name:"branch-and-bound finds the enumerated optimum" ~count:150
    QCheck.(triple (int_range 1 5) (int_range 1 4) (int_range 0 1_000_000))
    (fun (n_items, n_bins, seed) ->
      let rng = Util.Rng.create seed in
      let costs =
        Array.init n_items (fun _ -> Array.init n_bins (fun _ -> Util.Rng.float_range rng 0.0 50.0))
      in
      let sizes = Array.init n_items (fun _ -> 1 + Util.Rng.int rng 5) in
      let caps = Array.init n_bins (fun _ -> 1 + Util.Rng.int rng 10) in
      let p =
        mk ~n_items ~n_bins
          ~cost:(fun i b -> costs.(i).(b))
          ~size:(fun i -> sizes.(i))
          ~capacity:(fun b -> caps.(b))
      in
      let solved = Ilp.solve p in
      let all = Ilp.enumerate p in
      match (solved, all) with
      | None, [] -> true
      | Some { Ilp.objective; _ }, _ :: _ ->
        let best = List.fold_left (fun acc s -> min acc s.Ilp.objective) infinity all in
        abs_float (objective -. best) < 1e-6
      | Some _, [] | None, _ :: _ -> false)

let prop_solution_respects_capacity =
  QCheck.Test.make ~name:"solutions respect capacities" ~count:150
    QCheck.(pair (int_range 1 6) (int_range 0 1_000_000))
    (fun (n_items, seed) ->
      let rng = Util.Rng.create seed in
      let n_bins = 3 in
      let sizes = Array.init n_items (fun _ -> 1 + Util.Rng.int rng 4) in
      let caps = Array.init n_bins (fun _ -> 2 + Util.Rng.int rng 8) in
      let p =
        mk ~n_items ~n_bins
          ~cost:(fun i b -> float_of_int ((i * 7) + b))
          ~size:(fun i -> sizes.(i))
          ~capacity:(fun b -> caps.(b))
      in
      match Ilp.solve p with
      | None -> true
      | Some { Ilp.assignment; _ } ->
        Array.for_all
          (fun b ->
            let used = ref 0 in
            Array.iteri (fun i bin -> if bin = b then used := !used + sizes.(i)) assignment;
            !used <= caps.(b))
          (Array.init n_bins (fun b -> b)))

(* Seeded problems in four cost families: distinct floats, all zero (every
   assignment ties, as when a profile never touches the state), small
   integers (many ties) and integers with forbidden bins.  Capacities are
   drawn tight enough that some problems are infeasible. *)
let seeded_problem ~n_items ~n_bins seed =
  let rng = Util.Rng.create seed in
  let family = Util.Rng.int rng 4 in
  let cost _ _ =
    match family with
    | 0 -> Util.Rng.float_range rng 0.0 50.0
    | 1 -> 0.0
    | 2 -> float_of_int (Util.Rng.int rng 3)
    | _ -> if Util.Rng.int rng 4 = 0 then infinity else float_of_int (Util.Rng.int rng 4)
  in
  let costs = Array.init n_items (fun i -> Array.init n_bins (fun b -> cost i b)) in
  let sizes = Array.init n_items (fun _ -> 1 + Util.Rng.int rng 6) in
  let caps = Array.init n_bins (fun _ -> Util.Rng.int rng 14) in
  ( family,
    mk ~n_items ~n_bins
      ~cost:(fun i b -> costs.(i).(b))
      ~size:(fun i -> sizes.(i))
      ~capacity:(fun b -> caps.(b)) )

let same_solution a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y ->
    x.Ilp.assignment = y.Ilp.assignment
    && Int64.equal (Int64.bits_of_float x.Ilp.objective) (Int64.bits_of_float y.Ilp.objective)
  | Some _, None | None, Some _ -> false

let prop_solve_matches_oracle =
  QCheck.Test.make ~name:"array solver returns the closure solver's assignment, bit for bit" ~count:600
    QCheck.(triple (int_range 1 8) (int_range 1 5) (int_range 0 1_000_000))
    (fun (n_items, n_bins, seed) ->
      let _, p = seeded_problem ~n_items ~n_bins seed in
      same_solution (Ilp.solve p) (Ilp_oracle.solve p))

(* The generator reaches every case the property is meant to cover. *)
let test_oracle_coverage () =
  let infeasible = ref 0 and tied = ref 0 and forbidden = ref 0 in
  for seed = 0 to 399 do
    let family, p = seeded_problem ~n_items:(1 + (seed mod 8)) ~n_bins:(1 + (seed mod 5)) seed in
    let solved = Ilp.solve p in
    Alcotest.(check bool) (Printf.sprintf "seed %d agrees" seed) true (same_solution solved (Ilp_oracle.solve p));
    match solved with
    | None -> incr infeasible
    | Some _ -> if family = 1 || family = 2 then incr tied else if family = 3 then incr forbidden
  done;
  Alcotest.(check bool) (Printf.sprintf "%d infeasible problems" !infeasible) true (!infeasible >= 20);
  Alcotest.(check bool) (Printf.sprintf "%d solved tied-cost problems" !tied) true (!tied >= 50);
  Alcotest.(check bool) (Printf.sprintf "%d solved problems with forbidden bins" !forbidden) true (!forbidden >= 20)

let () =
  Alcotest.run "ilp"
    [ ( "solve",
        [ Alcotest.test_case "trivial" `Quick test_trivial;
          Alcotest.test_case "picks cheapest" `Quick test_picks_cheapest;
          Alcotest.test_case "capacity forces spread" `Quick test_capacity_forces_spread;
          Alcotest.test_case "infeasible" `Quick test_infeasible;
          Alcotest.test_case "forbidden assignment" `Quick test_forbidden_assignment;
          Alcotest.test_case "enumerate counts" `Quick test_enumerate_counts ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_solve_matches_enumeration; prop_solution_respects_capacity ] );
      ( "oracle",
        Alcotest.test_case "seeded problems cover ties, forbidden bins, infeasibility" `Quick
          test_oracle_coverage
        :: List.map QCheck_alcotest.to_alcotest [ prop_solve_matches_oracle ] ) ]
