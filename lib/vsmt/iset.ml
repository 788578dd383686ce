(* Sorted disjoint interval sets over Interval.t.  Normal form: ranges
   sorted by lower bound, pairwise disjoint and non-adjacent, every range
   non-empty — so [equal] is structural and [mem] is a binary search. *)

type t = Interval.t array

let empty : t = [||]
let of_dom d : t = [| Interval.of_dom d |]
let intervals (s : t) = Array.to_list s
let is_empty (s : t) = Array.length s = 0

let of_intervals ivs : t =
  let sorted =
    List.sort
      (fun (a : Interval.t) (b : Interval.t) ->
        if a.Interval.lo <> b.Interval.lo then Int.compare a.Interval.lo b.Interval.lo
        else Int.compare a.Interval.hi b.Interval.hi)
      ivs
  in
  let merged =
    List.fold_left
      (fun acc (iv : Interval.t) ->
        match acc with
        | (prev : Interval.t) :: rest
          when iv.Interval.lo <= prev.Interval.hi + 1 ->
          { prev with Interval.hi = max prev.Interval.hi iv.Interval.hi } :: rest
        | _ -> iv :: acc)
      [] sorted
  in
  Array.of_list (List.rev merged)

let mem v (s : t) =
  let rec go lo hi =
    if lo > hi then false
    else
      let mid = (lo + hi) / 2 in
      let iv = s.(mid) in
      if v < iv.Interval.lo then go lo (mid - 1)
      else if v > iv.Interval.hi then go (mid + 1) hi
      else true
  in
  go 0 (Array.length s - 1)

let inter (a : t) (b : t) : t =
  let out = ref [] in
  let i = ref 0 and j = ref 0 in
  while !i < Array.length a && !j < Array.length b do
    let x = a.(!i) and y = b.(!j) in
    (match Interval.inter x y with Some iv -> out := iv :: !out | None -> ());
    if x.Interval.hi <= y.Interval.hi then incr i else incr j
  done;
  Array.of_list (List.rev !out)

(* the first overlap in merged order holds the least common value *)
let min_inter (a : t) (b : t) =
  let rec go i j =
    if i >= Array.length a || j >= Array.length b then None
    else
      let x = a.(i) and y = b.(j) in
      let lo = max x.Interval.lo y.Interval.lo in
      if lo <= min x.Interval.hi y.Interval.hi then Some lo
      else if x.Interval.hi < y.Interval.hi then go (i + 1) j
      else go i (j + 1)
  in
  go 0 0

let union (a : t) (b : t) : t = of_intervals (Array.to_list a @ Array.to_list b)

let complement ~dom (s : t) : t =
  let lo = Dom.lo dom and hi = Dom.hi dom in
  let out = ref [] in
  let cursor = ref lo in
  Array.iter
    (fun (iv : Interval.t) ->
      let l = max iv.Interval.lo lo and h = min iv.Interval.hi hi in
      if l <= h then begin
        if !cursor < l then out := Interval.make !cursor (l - 1) :: !out;
        cursor := h + 1
      end)
    s;
  if !cursor <= hi then out := Interval.make !cursor hi :: !out;
  Array.of_list (List.rev !out)

let cardinal (s : t) =
  Array.fold_left (fun acc iv -> acc + Interval.size iv) 0 s

let equal (a : t) (b : t) =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Interval.equal x y) a b

let pp ppf (s : t) =
  if is_empty s then Fmt.pf ppf "{}"
  else Fmt.pf ppf "{%a}" Fmt.(array ~sep:(any " ") Interval.pp) s

(* ------------------------------------------------------------------ *)
(* Truth-set compilation                                               *)
(* ------------------------------------------------------------------ *)

let enum_max = 4_096

(* Exact algebra diverges from native evaluation only on overflow; these
   bounds keep |k·x + c| well inside native range for any domain value
   (domain bounds themselves clamp at Interval.pos_inf = 2^40). *)
let max_coeff = 1 lsl 20
let max_const = 1 lsl 50

(* [e] as [k·v + c], when it is that linear form with small coefficients. *)
let rec linear_form (v : Expr.var) (e : Expr.t) =
  let guard (k, c) =
    if abs k <= max_coeff && abs c <= max_const then Some (k, c) else None
  in
  match Expr.view e with
  | Expr.Const c -> guard (0, c)
  | Expr.Var u when String.equal u.Expr.name v.Expr.name -> Some (1, 0)
  | Expr.Neg a -> (
    match linear_form v a with Some (k, c) -> guard (-k, -c) | None -> None)
  | Expr.Binop (Expr.Add, a, b) -> (
    match (linear_form v a, linear_form v b) with
    | Some (ka, ca), Some (kb, cb) -> guard (ka + kb, ca + cb)
    | _ -> None)
  | Expr.Binop (Expr.Sub, a, b) -> (
    match (linear_form v a, linear_form v b) with
    | Some (ka, ca), Some (kb, cb) -> guard (ka - kb, ca - cb)
    | _ -> None)
  | Expr.Binop (Expr.Mul, a, b) -> (
    match (linear_form v a, linear_form v b) with
    | Some (0, ca), Some (kb, cb) -> guard (ca * kb, ca * cb)
    | Some (ka, ca), Some (0, cb) -> guard (ka * cb, ca * cb)
    | _ -> None)
  | _ -> None

(* floor/ceiling division for exact integer bound solving *)
let fdiv a b = if (a < 0) <> (b < 0) && a mod b <> 0 then (a / b) - 1 else a / b
let cdiv a b = if (a < 0) = (b < 0) && a mod b <> 0 then (a / b) + 1 else a / b

let clip ~dom lo hi =
  let lo = max lo (Dom.lo dom) and hi = min hi (Dom.hi dom) in
  if lo > hi then empty else of_intervals [ Interval.make lo hi ]

(* Solutions of [k·x cmp m] within [dom]; [k <> 0]. *)
let solve_cmp ~dom op k m : t =
  let all = of_dom dom and none = empty in
  match op with
  | Expr.Eq -> if m mod k = 0 then clip ~dom (m / k) (m / k) else none
  | Expr.Ne ->
    if m mod k = 0 then complement ~dom (clip ~dom (m / k) (m / k)) else all
  | Expr.Le ->
    if k > 0 then clip ~dom Interval.neg_inf (fdiv m k)
    else clip ~dom (cdiv m k) Interval.pos_inf
  | Expr.Lt ->
    (* k·x < m  ⇔  k·x ≤ m−1, then divide (flipping for k < 0) *)
    if k > 0 then clip ~dom Interval.neg_inf (fdiv (m - 1) k)
    else clip ~dom (cdiv (m - 1) k) Interval.pos_inf
  | Expr.Ge ->
    if k > 0 then clip ~dom (cdiv m k) Interval.pos_inf
    else clip ~dom Interval.neg_inf (fdiv m k)
  | Expr.Gt ->
    if k > 0 then clip ~dom (cdiv (m + 1) k) Interval.pos_inf
    else clip ~dom Interval.neg_inf (fdiv (m + 1) k)
  | _ -> invalid_arg "Iset.solve_cmp: not a comparison"

(* Truth set of a comparison/equation between two linear forms. *)
let compare_sets ~dom op (ka, ca) (kb, cb) : t =
  let k = ka - kb and m = cb - ca in
  if k = 0 then
    (* constant truth: 0 cmp m *)
    if Expr.apply_binop op 0 m <> 0 then of_dom dom else empty
  else solve_cmp ~dom op k m

let is_cmp = function
  | Expr.Eq | Expr.Ne | Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge -> true
  | _ -> false

exception Unclosable

let rec truth_set (v : Expr.var) dom (e : Expr.t) : t =
  match Expr.view e with
  | Expr.Const c -> if c <> 0 then of_dom dom else empty
  | Expr.Var u when String.equal u.Expr.name v.Expr.name ->
    complement ~dom (clip ~dom 0 0)
  | Expr.Not a -> complement ~dom (truth_set v dom a)
  | Expr.Binop (Expr.And, a, b) -> inter (truth_set v dom a) (truth_set v dom b)
  | Expr.Binop (Expr.Or, a, b) -> union (truth_set v dom a) (truth_set v dom b)
  | Expr.Binop (op, a, b) when is_cmp op -> (
    match (linear_form v a, linear_form v b) with
    | Some la, Some lb -> compare_sets ~dom op la lb
    | _ -> raise Unclosable)
  | _ -> (
    (* bare arithmetic in boolean position: truthy = non-zero *)
    match linear_form v e with
    | Some (0, c) -> if c <> 0 then of_dom dom else empty
    | Some (k, c) -> solve_cmp ~dom Expr.Ne k (-c)
    | None -> raise Unclosable)

let enumerate dom e : t =
  let lo = Dom.lo dom in
  let ivs = ref [] in
  for x = lo to Dom.hi dom do
    if Expr.eval (fun _ -> x) e <> 0 then
      ivs := Interval.make x x :: !ivs
  done;
  of_intervals !ivs

let of_expr ~(var : Expr.var) (e : Expr.t) : t option =
  let dom = var.Expr.dom in
  (* Interval bounds saturate at ±2^40; a wider domain would silently clip
     the truth set, so such parameters stay on the solver path. *)
  if Dom.lo dom < Interval.neg_inf || Dom.hi dom > Interval.pos_inf then None
  else
  match truth_set var dom e with
  | s -> Some s
  | exception Unclosable ->
    if Dom.size dom <= enum_max then Some (enumerate dom e) else None

let split cs =
  let singles = Hashtbl.create 4 and order = ref [] and rest = ref [] in
  List.iter
    (fun c ->
      let closed =
        match Expr.vars c with [ v ] -> Option.map (fun s -> (v, s)) (of_expr ~var:v c) | _ -> None
      in
      match closed with
      | None -> rest := c :: !rest
      | Some ((v : Expr.var), s) -> (
        let key = (v.Expr.name, v.Expr.dom) in
        match Hashtbl.find_opt singles key with
        | None ->
          order := key :: !order;
          Hashtbl.replace singles key (v, s, [ c ])
        | Some (u, t, prev) -> Hashtbl.replace singles key (u, inter t s, c :: prev)))
    cs;
  ( List.rev_map
      (fun key ->
        let v, s, exprs = Hashtbl.find singles key in
        (v, s, List.rev exprs))
      !order,
    List.rev !rest )
