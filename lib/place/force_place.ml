type result = { chip : Chip.t; energy : float; iterations : int }

(* Spring weights per component pair, symmetrised. *)
let springs nets n =
  let w = Array.make_matrix n n 0. in
  List.iter
    (fun { Energy.a; b; cp } ->
      (* A zero-cp net still deserves a faint pull so its endpoints do not
         drift apart during relaxation. *)
      let strength = Float.max cp 0.1 in
      w.(a).(b) <- w.(a).(b) +. strength;
      w.(b).(a) <- w.(b).(a) +. strength)
    nets;
  w

let max_iterations = 100

let place ~nets components =
  let n = Array.length components in
  let width, height = Chip.size_for components in
  let chip =
    { (Chip.scanline components) with width; height }
  in
  if n = 0 then { chip; energy = 0.; iterations = 0 }
  else begin
    let w = springs nets n in
    (* Continuous positions, seeded from the scanline layout so
       disconnected components keep a sensible spot. *)
    let pos = Array.init n (fun i -> Chip.center chip i) in
    let anchor = (float_of_int width /. 2., float_of_int height /. 2.) in
    let performed = ref 0 in
    (let rec relax k =
       if k > 0 then begin
         incr performed;
         let moved = ref 0. in
         for i = 0 to n - 1 do
           let sum_w = ref 0. and sx = ref 0. and sy = ref 0. in
           for j = 0 to n - 1 do
             if w.(i).(j) > 0. then begin
               sum_w := !sum_w +. w.(i).(j);
               sx := !sx +. (w.(i).(j) *. fst pos.(j));
               sy := !sy +. (w.(i).(j) *. snd pos.(j))
             end
           done;
           (* A weak anchor to the chip centre keeps lonely components from
              drifting and regularises the system. *)
           let anchor_w = 0.05 *. Float.max !sum_w 1. in
           let total = !sum_w +. anchor_w in
           let x = (!sx +. (anchor_w *. fst anchor)) /. total in
           let y = (!sy +. (anchor_w *. snd anchor)) /. total in
           let dx = x -. fst pos.(i) and dy = y -. snd pos.(i) in
           moved := !moved +. Float.abs dx +. Float.abs dy;
           pos.(i) <- (x, y)
         done;
         if !moved > 1e-3 then relax (k - 1)
       end
     in
     relax max_iterations);
    (* Legalize: snap components to grid anchors, most-connected first,
       spiralling out from the desired location until a legal slot is
       found. *)
    let order =
      List.init n Fun.id
      |> List.sort (fun i j ->
             let weight i =
               Array.fold_left ( +. ) 0. w.(i)
             in
             Float.compare (weight j) (weight i))
    in
    let placed = Array.make n false in
    let legal_at i x y =
      chip.places.(i) <- { x; y; rotated = false };
      Chip.in_bounds chip i
      && List.for_all
           (fun j -> (not placed.(j)) || j = i || Chip.pair_legal chip i j)
           (List.init n Fun.id)
    in
    let snap i =
      let cx, cy = pos.(i) in
      let c = components.(i) in
      let desired_x = int_of_float (Float.round (cx -. (float_of_int c.width /. 2.))) in
      let desired_y = int_of_float (Float.round (cy -. (float_of_int c.height /. 2.))) in
      let rec spiral radius =
        if radius > width + height then
          (* Pathological fallback: scanline position is always legal on a
             size_for chip. *)
          ignore (legal_at i chip.places.(i).x chip.places.(i).y)
        else begin
          let candidates = ref [] in
          for dx = -radius to radius do
            for dy = -radius to radius do
              if max (abs dx) (abs dy) = radius then
                candidates := (desired_x + dx, desired_y + dy) :: !candidates
            done
          done;
          let sorted =
            List.sort
              (fun (x1, y1) (x2, y2) ->
                compare (abs (x1 - desired_x) + abs (y1 - desired_y))
                  (abs (x2 - desired_x) + abs (y2 - desired_y)))
              !candidates
          in
          match List.find_opt (fun (x, y) -> legal_at i x y) sorted with
          | Some (x, y) ->
            chip.places.(i) <- { x; y; rotated = false };
            placed.(i) <- true
          | None -> spiral (radius + 1)
        end
      in
      spiral 0
    in
    List.iter snap order;
    (* If spiralling somehow failed for a component (placed = false), fall
       back to the full scanline layout. *)
    let chip =
      if Array.for_all Fun.id placed && Chip.legal chip then chip
      else Chip.scanline components
    in
    { chip; energy = Annealer.objective chip nets; iterations = !performed }
  end
