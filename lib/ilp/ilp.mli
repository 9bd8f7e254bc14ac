(** Exact 0/1 integer linear programming for generalized assignment —
    Clara's state-placement formulation (§4.3): place each item (data
    structure) into one bin (memory level) minimizing total cost subject
    to bin capacities.  Solved exactly by branch-and-bound with an
    admissible capacity-relaxed bound. *)

type problem = {
  n_items : int;
  n_bins : int;
  cost : int -> int -> float;  (** [cost item bin]; [infinity] forbids *)
  size : int -> int;
  capacity : int -> int;
}

type solution = { assignment : int array; objective : float }

exception Infeasible

(** The optimal assignment, or [None] when capacities cannot be
    satisfied.  [p]'s functions are read once per item and bin, into
    arrays the search then works over; among equal-cost optima the one
    found first wins (items largest-first, each item's bins
    cheapest-first). *)
val solve : problem -> solution option

(** Every feasible assignment — the §5.8 expert-emulation exhaustive
    search.  Only safe for small problems (bins^items candidates). *)
val enumerate : problem -> solution list
