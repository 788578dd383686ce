(* Symbol-disjoint slices of a path condition, grouped when a query is
   made.  [owner.(i)] is the slice conjunct [i] was given, or -1; slices
   are numbered in the order of their earliest conjunct, so reading the
   conjuncts back by position gives path order inside every slice. *)

(* A var-free conjunct other than a literal true — a literal false or a
   ground term — fits no slice. *)
let unsliceable fp c =
  Footprint.is_empty fp && match Expr.view c with Expr.Const v -> v = 0 | _ -> true

(* Give slice [id] every free conjunct from position [from] on that a
   chain of shared symbols links to [reach].  A pass that grew the reach
   is followed by another, for the conjuncts it passed over. *)
let grow fps owner ~id ~from reach =
  let reach = ref reach and grew = ref true in
  while !grew do
    grew := false;
    for i = from to Array.length fps - 1 do
      if owner.(i) < 0 && Footprint.overlaps fps.(i) !reach then begin
        owner.(i) <- id;
        let r = Footprint.union !reach fps.(i) in
        if r != !reach then begin
          reach := r;
          grew := true
        end
      end
    done
  done

let relevant pc fp =
  if List.memq Expr.fls pc then [ Expr.fls ]
  else begin
    let cs = Array.of_list pc in
    let fps = Array.map Footprint.of_expr cs in
    (* with no literal false left, an unsliceable conjunct is ground: sent *)
    let owner = Array.mapi (fun i c -> if unsliceable fps.(i) c then 0 else -1) cs in
    grow fps owner ~id:0 ~from:0 fp;
    let out = ref [] in
    for i = Array.length cs - 1 downto 0 do
      if owner.(i) = 0 then out := cs.(i) :: !out
    done;
    !out
  end

let slices pc =
  let cs = Array.of_list pc in
  let fps = Array.map Footprint.of_expr cs in
  let n = Array.length cs in
  let owner = Array.make n (-1) and count = ref 0 and whole = ref false in
  for i = 0 to n - 1 do
    if unsliceable fps.(i) cs.(i) then whole := true
    else if owner.(i) < 0 && not (Footprint.is_empty fps.(i)) then begin
      owner.(i) <- !count;
      grow fps owner ~id:!count ~from:(i + 1) fps.(i);
      incr count
    end
  done;
  if !whole then None
  else begin
    let out = Array.make !count [] in
    for i = n - 1 downto 0 do
      let s = owner.(i) in
      if s >= 0 then out.(s) <- cs.(i) :: out.(s)
    done;
    Some (Array.to_list out)
  end
