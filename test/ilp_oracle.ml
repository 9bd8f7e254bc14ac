(* The branch-and-bound solver that {!Ilp.solve} replaced, kept as a
   test-only oracle.  It reads the problem's closures at every node:
   each node re-sorts its item's bins by calling [cost], and the bound
   of the unassigned suffix calls [cost] for every remaining item and
   bin.  The differential property checks that the array solver returns
   the same assignment and a bit-equal objective, ties included. *)

open Ilp

(* Admissible lower bound for the unassigned suffix: each remaining item
   takes its cheapest bin, ignoring capacities. *)
let suffix_bound p order start =
  let acc = ref 0.0 in
  for k = start to p.n_items - 1 do
    let item = order.(k) in
    let best = ref infinity in
    for b = 0 to p.n_bins - 1 do
      best := min !best (p.cost item b)
    done;
    acc := !acc +. !best
  done;
  !acc

let solve (p : problem) : solution option =
  if p.n_items = 0 then Some { assignment = [||]; objective = 0.0 }
  else begin
    let order = Array.init p.n_items (fun i -> i) in
    Array.sort (fun a b -> compare (p.size b) (p.size a)) order;
    let remaining = Array.init p.n_bins p.capacity in
    let assignment = Array.make p.n_items (-1) in
    let best_obj = ref infinity in
    let best_assign = ref None in
    let rec go k cost_so_far =
      if cost_so_far +. suffix_bound p order k >= !best_obj then ()
      else if k = p.n_items then begin
        best_obj := cost_so_far;
        best_assign := Some (Array.copy assignment)
      end
      else begin
        let item = order.(k) in
        (* try bins cheapest-first for better pruning *)
        let bins = Array.init p.n_bins (fun b -> b) in
        Array.sort (fun a b -> compare (p.cost item a) (p.cost item b)) bins;
        Array.iter
          (fun b ->
            let c = p.cost item b in
            if c < infinity && remaining.(b) >= p.size item then begin
              remaining.(b) <- remaining.(b) - p.size item;
              assignment.(item) <- b;
              go (k + 1) (cost_so_far +. c);
              assignment.(item) <- -1;
              remaining.(b) <- remaining.(b) + p.size item
            end)
          bins
      end
    in
    go 0 0.0;
    match !best_assign with
    | Some a -> Some { assignment = a; objective = !best_obj }
    | None -> None
  end
