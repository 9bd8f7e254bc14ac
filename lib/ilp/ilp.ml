(** Exact 0/1 integer linear programming for generalized assignment.

    Clara's state-placement formulation (§4.3): place each of k data
    structures into one of t memory levels, minimizing total weighted
    access latency subject to per-level capacity.  Solved by depth-first
    branch-and-bound with an admissible bound (capacity-relaxed greedy),
    items ordered largest-first.  Problem sizes are tiny (k <= dozens), so
    exactness is cheap. *)

type problem = {
  n_items : int;
  n_bins : int;
  cost : int -> int -> float;  (** cost item bin; [infinity] = forbidden *)
  size : int -> int;
  capacity : int -> int;
}

type solution = { assignment : int array; objective : float }

exception Infeasible

(* The search reads [p] only through arrays built here, once per solve:
   the cost matrix, the sizes, each item's bins cheapest-first (the same
   [Array.sort] over the same comparator, so ties fall the same way) and
   the admissible bound of every unassigned suffix: each remaining item
   at its cheapest bin, capacities ignored, summed forward from the
   suffix's first position. *)
let solve (p : problem) : solution option =
  if p.n_items = 0 then Some { assignment = [||]; objective = 0.0 }
  else begin
    let n = p.n_items and n_bins = p.n_bins in
    let cost = Array.init n (fun i -> Array.init n_bins (fun b -> p.cost i b)) in
    let size = Array.init n p.size in
    let order = Array.init n (fun i -> i) in
    Array.sort (fun a b -> compare size.(b) size.(a)) order;
    let bins_by_cost =
      Array.map
        (fun row ->
          let bins = Array.init n_bins (fun b -> b) in
          Array.sort (fun a b -> compare row.(a) row.(b)) bins;
          bins)
        cost
    in
    let cheapest =
      Array.map (fun item -> Array.fold_left (fun best c -> min best c) infinity cost.(item)) order
    in
    let bound =
      Array.init (n + 1) (fun start ->
          let acc = ref 0.0 in
          for k = start to n - 1 do
            acc := !acc +. cheapest.(k)
          done;
          !acc)
    in
    let remaining = Array.init n_bins p.capacity in
    let assignment = Array.make n (-1) in
    let best_obj = ref infinity in
    let best_assign = ref None in
    let rec go k cost_so_far =
      if cost_so_far +. bound.(k) >= !best_obj then ()
      else if k = n then begin
        best_obj := cost_so_far;
        best_assign := Some (Array.copy assignment)
      end
      else begin
        let item = order.(k) in
        let row = cost.(item) and bins = bins_by_cost.(item) and s = size.(item) in
        for j = 0 to n_bins - 1 do
          let b = bins.(j) in
          let c = row.(b) in
          if c < infinity && remaining.(b) >= s then begin
            remaining.(b) <- remaining.(b) - s;
            assignment.(item) <- b;
            go (k + 1) (cost_so_far +. c);
            assignment.(item) <- -1;
            remaining.(b) <- remaining.(b) + s
          end
        done
      end
    in
    go 0 0.0;
    match !best_assign with
    | Some a -> Some { assignment = a; objective = !best_obj }
    | None -> None
  end

(** Enumerate all feasible assignments (for expert-emulation exhaustive
    search, §5.8).  Only safe for small problems: bins^items candidates. *)
let enumerate (p : problem) : solution list =
  let results = ref [] in
  let remaining = Array.init p.n_bins p.capacity in
  let assignment = Array.make p.n_items (-1) in
  let rec go item cost_so_far =
    if item = p.n_items then
      results := { assignment = Array.copy assignment; objective = cost_so_far } :: !results
    else
      for b = 0 to p.n_bins - 1 do
        let c = p.cost item b in
        if c < infinity && remaining.(b) >= p.size item then begin
          remaining.(b) <- remaining.(b) - p.size item;
          assignment.(item) <- b;
          go (item + 1) (cost_so_far +. c);
          assignment.(item) <- -1;
          remaining.(b) <- remaining.(b) + p.size item
        end
      done
  in
  go 0 0.0;
  !results
