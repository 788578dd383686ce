(* Oversubscription past the core count is allowed on purpose: results are
   job-count-independent, so running `--jobs 4` on a single-core machine is
   how the determinism tests exercise real worker interleavings anywhere.
   The absolute bound only guards against absurd spawn requests. *)
let max_jobs = 64
let clamp_jobs n = max 1 (min n max_jobs)

(* sticky: OCaml 5 puts the runtime in multicore mode on the first
   Domain.spawn and [Unix.fork] is forbidden from then on; fork-based code
   (the fleet supervisor, the fuzz oracle, the kill -9 checkpoint test)
   consults this to bail out cleanly *)
let spawned = Atomic.make false
let spawned_domains () = Atomic.get spawned

(* [body w] for each worker index [w], worker 0 on the calling domain; the
   first exception (by worker index) is re-raised once every domain has
   been joined *)
let run ~jobs body =
  let jobs = clamp_jobs jobs in
  if jobs = 1 then body 0
  else begin
    Atomic.set spawned true;
    let errors = Array.make jobs None in
    let guarded w () =
      try body w with e -> errors.(w) <- Some (e, Printexc.get_raw_backtrace ())
    in
    let spawned = Array.init (jobs - 1) (fun i -> Domain.spawn (guarded (i + 1))) in
    guarded 0 ();
    Array.iter Domain.join spawned;
    Array.iter
      (function
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> ())
      errors
  end

let map_array ~jobs f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else if clamp_jobs jobs = 1 || n < 2 then Array.map f xs
  else begin
    let out = Array.make n None in
    let next = Atomic.make 0 in
    run ~jobs:(min jobs n) (fun _ ->
        let rec loop () =
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            out.(i) <- Some (f xs.(i));
            loop ()
          end
        in
        loop ());
    Array.map
      (function
        | Some y -> y
        | None -> assert false (* every index was claimed by some worker *))
      out
  end
