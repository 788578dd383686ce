type stats = { groups : int; batched_requests : int; coalesced : int }

let run ~group_of ~dedup_of ~exec reqs =
  let n = Array.length reqs in
  if n = 0 then ([||], { groups = 0; batched_requests = 0; coalesced = 0 })
  else begin
    (* group sizes, and one representative index per (group, dedup) pair *)
    let group_size = Hashtbl.create 8 in
    let rep_of_pair = Hashtbl.create 8 in
    let rep = Array.make n 0 in
    let group = Array.make n "" in
    for i = 0 to n - 1 do
      let g = group_of reqs.(i) in
      group.(i) <- g;
      Hashtbl.replace group_size g
        (1 + Option.value ~default:0 (Hashtbl.find_opt group_size g));
      let pair = (g, dedup_of reqs.(i)) in
      match Hashtbl.find_opt rep_of_pair pair with
      | Some r -> rep.(i) <- r
      | None ->
        Hashtbl.add rep_of_pair pair i;
        rep.(i) <- i
    done;
    (* execute each representative once, in input order *)
    let result_of = Hashtbl.create 8 in
    Array.iteri (fun i r -> if r = i then Hashtbl.replace result_of i (exec reqs.(i))) rep;
    let coalesced = ref 0 in
    let batched_requests = ref 0 in
    let out =
      Array.init n (fun i ->
          let batched = Hashtbl.find group_size group.(i) > 1 in
          let coal = rep.(i) <> i in
          if batched then incr batched_requests;
          if coal then incr coalesced;
          (Hashtbl.find result_of rep.(i), batched, coal))
    in
    ( out,
      {
        groups = Hashtbl.length group_size;
        batched_requests = !batched_requests;
        coalesced = !coalesced;
      } )
  end
