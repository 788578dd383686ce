type t = { lo : int; hi : int }

(* Stay well clear of native overflow: bounds saturate at +-2^40. *)
let pos_inf = 1 lsl 40
let neg_inf = -pos_inf

let clamp v = if v > pos_inf then pos_inf else if v < neg_inf then neg_inf else v

let make lo hi =
  if lo > hi then invalid_arg "Interval.make: empty";
  { lo = clamp lo; hi = clamp hi }

let point v = make v v
let of_dom d = make (Dom.lo d) (Dom.hi d)
let is_point { lo; hi } = lo = hi
let mem v { lo; hi } = v >= lo && v <= hi
let size { lo; hi } = if lo = neg_inf || hi = pos_inf then max_int else hi - lo + 1

let inter a b =
  let lo = max a.lo b.lo and hi = min a.hi b.hi in
  if lo > hi then None else Some { lo; hi }

let hull a b = { lo = min a.lo b.lo; hi = max a.hi b.hi }

let add a b = make (a.lo + b.lo) (a.hi + b.hi)
let sub a b = make (a.lo - b.hi) (a.hi - b.lo)
let neg a = make (-a.hi) (-a.lo)

let mul a b =
  let p1 = a.lo * b.lo and p2 = a.lo * b.hi and p3 = a.hi * b.lo and p4 = a.hi * b.hi in
  make (min (min p1 p2) (min p3 p4)) (max (max p1 p2) (max p3 p4))

(* Division mirrors Expr.eval semantics: x / 0 = 0.  Over-approximate by
   including 0 whenever the divisor may be 0. *)
let div a b =
  let safe_div x y = if y = 0 then 0 else x / y in
  let candidates =
    [ safe_div a.lo b.lo; safe_div a.lo b.hi; safe_div a.hi b.lo; safe_div a.hi b.hi ]
  in
  let candidates =
    (* divisor crossing +-1 can produce extreme quotients *)
    (if mem 1 b then [ a.lo; a.hi ] else [])
    @ (if mem (-1) b then [ -a.lo; -a.hi ] else [])
    @ (if mem 0 b then [ 0 ] else [])
    @ candidates
  in
  make (List.fold_left min max_int candidates) (List.fold_left max min_int candidates)

let rem a b =
  if is_point a && is_point b then point (if b.lo = 0 then 0 else a.lo mod b.lo)
  else
    let m = max (abs b.lo) (abs b.hi) in
    if m = 0 then point 0
    else if a.lo >= 0 then make 0 (min a.hi (m - 1))
    else make (-(m - 1)) (m - 1)

let cmp_result holds a b =
  let all = holds a.lo b.hi && holds a.lo b.lo && holds a.hi b.lo && holds a.hi b.hi in
  let none =
    (not (holds a.lo b.lo)) && (not (holds a.lo b.hi)) && (not (holds a.hi b.lo))
    && not (holds a.hi b.hi)
  in
  (* [all]/[none] via corner checks are only exact for monotone relations;
     <, <=, >, >= are monotone, = and <> are special-cased by callers via
     interval containment.  Conservative fallback: unknown. *)
  if all then point 1 else if none then point 0 else make 0 1

let eq_result a b =
  if is_point a && is_point b then point (if a.lo = b.lo then 1 else 0)
  else if inter a b = None then point 0
  else make 0 1

let ne_result a b =
  if is_point a && is_point b then point (if a.lo <> b.lo then 1 else 0)
  else if inter a b = None then point 1
  else make 0 1

let definitely_true i = i.lo = 1 && i.hi = 1
let definitely_false i = i.lo = 0 && i.hi = 0

let logical_and a b =
  if definitely_false a || definitely_false b then point 0
  else if definitely_true a && definitely_true b then point 1
  else make 0 1

let logical_or a b =
  if definitely_true a || definitely_true b then point 1
  else if definitely_false a && definitely_false b then point 0
  else make 0 1

let logical_not a =
  if definitely_false a then point 1 else if definitely_true a then point 0 else make 0 1

let pp ppf { lo; hi } = Fmt.pf ppf "[%d..%d]" lo hi
let equal a b = a.lo = b.lo && a.hi = b.hi
