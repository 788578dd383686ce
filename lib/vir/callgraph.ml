(* each function's direct callees, in call order *)
type t = (string, string list) Hashtbl.t

let add_edge tbl a b =
  let cur = match Hashtbl.find_opt tbl a with Some l -> l | None -> [] in
  if not (List.mem b cur) then Hashtbl.replace tbl a (cur @ [ b ])

let build (p : Ast.program) =
  let t = Hashtbl.create 64 in
  List.iter
    (fun (f : Ast.func) ->
      Ast.iter_stmts
        (function Ast.Call { fn; _ } -> add_edge t f.fname fn | _ -> ())
        (Ast.func_body f))
    p.funcs;
  t

let callees t f = match Hashtbl.find_opt t f with Some l -> l | None -> []

let paths_to ?(max_paths = 256) t ~entry target =
  let results = ref [] and count = ref 0 in
  let rec go path f =
    if !count < max_paths && not (List.mem f path) then begin
      let path = path @ [ f ] in
      if String.equal f target then begin
        results := path :: !results;
        incr count
      end
      else List.iter (go path) (callees t f)
    end
  in
  go [] entry;
  List.rev !results

let reachable t ~from =
  let seen = Hashtbl.create 32 in
  let rec go f =
    if not (Hashtbl.mem seen f) then begin
      Hashtbl.add seen f ();
      List.iter go (callees t f)
    end
  in
  go from;
  Hashtbl.fold (fun f () acc -> f :: acc) seen [] |> List.sort String.compare
