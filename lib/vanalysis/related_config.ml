module Sset = Set.Make (String)

type result = {
  target : string;
  enablers : string list;
  influenced : string list;
  related : string list;
}

(* Algorithm 2.  For each usage of [p] (in function [f]), walk every call
   chain entry -> ... -> f.  In each chain function [g], any parameter [q]
   guarding either the chain's call site in [g] (g <> f) or the usage site
   itself (g = f) is an enabler of [p]. *)
let enabler_set ~entry usage callgraph p =
  let acc = ref Sset.empty in
  let add q = if not (String.equal q p) then acc := Sset.add q !acc in
  let usage_funcs = Usage.usage_functions usage p in
  List.iter
    (fun f ->
      (* guards of the usage sites inside f *)
      List.iter (List.iter add) (Usage.usage_guards usage ~func:f ~param:p);
      (* guards of the call sites along each chain from the entry *)
      let chains = Vir.Callgraph.paths_to callgraph ~entry f in
      List.iter
        (fun chain ->
          let rec walk = function
            | g :: (next :: _ as rest) ->
              List.iter (List.iter add) (Usage.call_site_guards usage ~func:g ~callee:next);
              walk rest
            | [ _ ] | [] -> ()
          in
          walk chain)
        chains)
    usage_funcs;
  Sset.elements !acc

(* Algorithm 1: the target's enablers, and every parameter the target
   enables. *)
let analyze ?usage (program : Vir.Ast.program) target =
  let usage = match usage with Some u -> u | None -> Usage.analyze program in
  let callgraph = Vir.Callgraph.build program in
  let enablers_of = enabler_set ~entry:program.entry usage callgraph in
  let enablers = enablers_of target in
  let influenced =
    List.filter
      (fun q -> (not (String.equal q target)) && List.mem target (enablers_of q))
      (Usage.all_params usage)
  in
  let related = Sset.elements (Sset.remove target (Sset.of_list (enablers @ influenced))) in
  { target; enablers; influenced; related }
