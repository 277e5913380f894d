from mgstate.cli import main
raise SystemExit(main())
