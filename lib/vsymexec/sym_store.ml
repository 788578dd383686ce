module Smap = Map.Make (String)

type t = { frames : Vsmt.Expr.t Smap.t list; globals : Vsmt.Expr.t Smap.t }

let empty = { frames = [ Smap.empty ]; globals = Smap.empty }

let with_globals bindings =
  {
    empty with
    globals =
      List.fold_left
        (fun m (n, v) -> Smap.add n (Vsmt.Expr.const v) m)
        Smap.empty bindings;
  }

let push_frame t = { t with frames = Smap.empty :: t.frames }

let pop_frame t =
  match t.frames with
  | [] | [ _ ] -> invalid_arg "Sym_store.pop_frame: no frame to pop"
  | _ :: rest -> { t with frames = rest }

let set_local t name v =
  match t.frames with
  | [] -> invalid_arg "Sym_store.set_local: no frame"
  | f :: rest -> { t with frames = Smap.add name v f :: rest }

let get_local t name =
  match t.frames with [] -> None | f :: _ -> Smap.find_opt name f

let set_global t name v = { t with globals = Smap.add name v t.globals }
let get_global t name = Smap.find_opt name t.globals

let substitute_everywhere t f =
  let sub m = Smap.map (fun e -> Vsmt.Simplify.simplify (Vsmt.Expr.subst f e)) m in
  { frames = List.map sub t.frames; globals = sub t.globals }

let map_exprs f t =
  { frames = List.map (Smap.map f) t.frames; globals = Smap.map f t.globals }
