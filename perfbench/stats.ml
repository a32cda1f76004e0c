(* Order statistics shared by the workloads. *)

(* Nearest-rank percentile of a non-empty unsorted sample. *)
let percentile samples pct =
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  sorted.(max 1 (((Array.length sorted * pct) + 99) / 100) - 1)

let median_float xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ratio num den =
  if den = 0 then 0.0 else float_of_int num /. float_of_int den

let fratio num den = if den = 0.0 then 0.0 else num /. den

(* Out-of-order pairs among normal <= riv <= fat. *)
let rank_inversions ~normal ~riv ~fat =
  List.length (List.filter Fun.id [ normal > riv; normal > fat; riv > fat ])

(* Section 6.2's average slowdowns over normal pointers. *)
let paper_values =
  Core.Repr.
    [ (Off_holder, 1.13); (Riv, 1.24); (Based, 1.03); (Fat, 3.6) ]

(* Mean of |ln (measured slowdown / paper value)|. *)
let paper_gap pairs =
  match pairs with
  | [] -> 0.0
  | _ ->
      List.fold_left
        (fun acc (m, p) -> acc +. Float.abs (log (m /. p)))
        0.0 pairs
      /. float_of_int (List.length pairs)
