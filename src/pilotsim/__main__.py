if __name__ == "__main__":
    from .cli import main
    raise SystemExit(main())
